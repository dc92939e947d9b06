"""Golden CLI corpus: stdout and exit code of fixed relcat invocations.

``tests/golden/cases.json`` lists each invocation with its expected exit
code; ``tests/golden/<name>.out`` holds its exact stdout.  Every output
must stay byte-identical, so a refactor that changes any printed value
shows up here.  After a deliberate output change, rewrite the expected
files with ``PYTHONPATH=src python tests/test_golden.py`` and review the
diff.
"""

import json
from pathlib import Path

import pytest

from relcat.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()


def record():
    """Run every case and write its stdout and exit code as the expectation."""
    import contextlib
    import io

    for case in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            case["exit"] = main(list(case["argv"]))
        (GOLDEN / f"{case['name']}.out").write_text(buf.getvalue())
    lines = ",\n".join("  " + json.dumps(case) for case in CASES)
    (GOLDEN / "cases.json").write_text("[\n" + lines + "\n]\n")


if __name__ == "__main__":
    record()
