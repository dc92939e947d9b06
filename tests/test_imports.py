"""Which relcat modules each entry point loads.

One fresh interpreter imports ``relcat.cli``, then runs ``count`` and then
``verify knop`` in-process, and records the relcat modules in
``sys.modules`` after each step.  The sets only grow, so a module missing
after a later step was loaded by none of the steps before it.
"""

import json
import subprocess
import sys

import pytest

SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "relcat" or m.startswith("relcat."))

steps = {}
import relcat.cli
steps["import"] = loaded()
for name, argv in (("count", ["count", "--q", "3", "--s", "1", "--k", "2"]),
                   ("knop", ["verify", "knop", "--q", "2^2", "--trials", "3"])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert relcat.cli.main(argv) == 0, argv
    steps[name] = loaded()
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def steps():
    run = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return {name: set(mods) for name, mods in json.loads(run.stdout).items()}


def test_import_loads_only_what_every_command_uses(steps):
    assert steps["import"] == {"relcat", "relcat.cli", "relcat.errors", "relcat.field"}


def test_count_loads_no_suite_functor_or_evaluator(steps):
    for module in ("frobenius", "suites", "concrete", "dsl"):
        assert f"relcat.{module}" not in steps["count"], module


def test_verify_knop_loads_only_the_relation_layers(steps):
    for module in ("frobenius", "dsl", "terms", "concrete", "category"):
        assert f"relcat.{module}" not in steps["knop"], module
    assert {"relcat.matrix", "relcat.relations", "relcat.suites"} <= steps["knop"]
