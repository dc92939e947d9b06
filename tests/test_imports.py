"""Which relcat modules each entry point loads.

A fresh interpreter imports ``relcat.cli``, then runs the given commands
in-process one after another, and records the relcat modules in
``sys.modules`` after each step.  The sets only grow, so a module missing
after a later step was loaded by none of the steps before it.  One
interpreter runs ``count`` and then ``verify knop``; another runs ``eval``
alone.
"""

import json
import subprocess
import sys

import pytest

SCRIPT = """
import contextlib, io, json, sys

COMMANDS = {
    "count": ["count", "--q", "3", "--s", "1", "--k", "2"],
    "knop": ["verify", "knop", "--q", "2^2", "--trials", "3"],
    "eval": ["eval", "--q", "3", "m . (t * sigma - 1/2 * (mu(2) @ id(1))) . m*"],
}

def loaded():
    return sorted(m for m in sys.modules if m == "relcat" or m.startswith("relcat."))

steps = {}
import relcat.cli
steps["import"] = loaded()
for name in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert relcat.cli.main(COMMANDS[name]) == 0, name
    steps[name] = loaded()
print(json.dumps(steps))
"""


def _run(*names):
    run = subprocess.run([sys.executable, "-c", SCRIPT, *names], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return {name: set(mods) for name, mods in json.loads(run.stdout).items()}


@pytest.fixture(scope="module")
def steps():
    return {**_run("count", "knop"), "eval": _run("eval")["eval"]}


def test_import_loads_only_what_every_command_uses(steps):
    assert steps["import"] == {"relcat", "relcat.cli", "relcat.errors", "relcat.field"}


def test_count_loads_no_suite_functor_or_evaluator(steps):
    for module in ("frobenius", "suites", "concrete", "dsl"):
        assert f"relcat.{module}" not in steps["count"], module


def test_verify_knop_loads_only_the_relation_layers(steps):
    for module in ("frobenius", "dsl", "terms", "concrete", "category"):
        assert f"relcat.{module}" not in steps["knop"], module
    assert {"relcat.matrix", "relcat.relations", "relcat.suites"} <= steps["knop"]


def test_eval_loads_only_the_formal_layers(steps):
    formal = ("cli", "errors", "field", "dsl", "terms", "category", "relations", "matrix", "poly")
    assert steps["eval"] == {"relcat"} | {f"relcat.{module}" for module in formal}
