"""Random command lines keep the CLI's exit-code contract.

Every argv is drawn from a fixed vocabulary: each subcommand with its own
flags and, now and then, one it does not take, good and bad field orders,
small and negative sizes, and expressions that parse, fail to parse or hit
a feasibility guard.  Sizes stay small so that every command
answers at once.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from relcat.cli import main

EXPRESSIONS = [
    "eps* . eps",
    "m . m*",
    "id(2)",
    "mu(1) . mu(2)",
    "muM(2;[[1,1]])",
    "t * id(1) + 2 * sigma",
    "(1/2) * coev . ev",
    "rel(2;1,1;[])",
    "rel(2;1,1;[[1,1]])",
    "rel(3;1,1;[[1,2]])",
    "m . (",
    "m . z",
    "rel(2;1,1;[[1],[1,1]])",
    "muM(2;[[1]])",
    "foo",
    "",
    "id(5000)",
    "id(100000000)",
    "rel(2;100000000,0;[])",
]
# valid values are listed more than once, so most command lines get past
# the option checks
SIZES = ["-1", "0", "1", "1"]
OPTIONS = {
    "--q": ["2", "2", "3", "3", "9" * 5000, "2^2", "4", "2^9", "0", "abc"],
    "--t": ["sym", "2", "1/2", "-3", "abc", "1/0"],
    "--seed": ["0", "1", "-2"],
    "--trials": SIZES + ["2"],
    "--max-arity": SIZES + ["2"],
    "--n": SIZES,
    "--s": SIZES,
    "--k": SIZES,
    "--format": ["text", "json", "xml"],
}
# each subcommand's own flags, and one it does not take, which argparse refuses
FLAGS = {
    "eval": (["--q", "--t", "--format"], "--n"),
    "specialize": (["--q", "--t", "--n", "--format"], "--seed"),
    "verify": (["--q", "--n", "--seed", "--trials", "--max-arity", "--format"], "--t"),
    "gram": (["--s", "--k", "--q", "--t", "--format"], "--trials"),
    "count": (["--s", "--k", "--q", "--format"], "--t"),
    "knop-convert": (["--q", "--format"], "--s"),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["eval", "specialize", "verify", "gram", "count", "knop-convert"]))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(["axioms", "lemmas", "functor", "relinfty", "knop", "all"])))
    elif command != "gram" and command != "count":
        argv.append(draw(st.sampled_from(EXPRESSIONS)))
    own, foreign = FLAGS[command]
    flags = draw(st.lists(st.sampled_from(own), unique=True, max_size=4))
    # the foreign flag is rare, so that most command lines reach the command
    if draw(st.integers(0, 7)) == 7:
        flags.append(foreign)
    if command == "verify" and "--trials" not in flags:
        flags.append("--trials")  # the default of 100 trials is not small
    for flag in flags:
        argv += [flag, draw(st.sampled_from(OPTIONS[flag]))]
    return argv


def run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_exit_codes_keep_the_contract(argv):
    code = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert code != 1 or argv[0] == "verify", argv
