"""Command-line interface: outputs, exit codes, determinism."""

import json
import re
import subprocess
import sys
import time

from relcat import suites
from relcat.cli import build_parser, main
from relcat.concrete import ConcreteMap, f_r_matrix, rel_infty_stability
from relcat.field import Fq
from relcat.frobenius import FrobeniusData, hat_f, standard_target, term_eval
from relcat.relations import knop_diamond


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_symbolic(capsys):
    code, out, _ = run_cli(capsys, "eval", "--q", "2", "eps* . eps")
    assert code == 0
    assert out.strip() == "t * rel(2;0,0;[])"


def test_eval_evaluated(capsys):
    code, out, _ = run_cli(capsys, "eval", "--q", "2", "--t", "4", "eps* . eps")
    assert code == 0
    assert out.strip() == "4 * rel(2;0,0;[])"


def test_eval_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "--q", "2", "--format", "json", "m . m*")
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == 1 and payload["k"] == 1
    assert payload["terms"][0]["coeff"] == "1"


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--q", "2", "m . (")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "eval", "--q", "2", "m . z")
    assert code == 2


def test_specialize_all_ones(capsys):
    code, out, _ = run_cli(capsys, "specialize", "--q", "2", "--n", "1", "rel(2;1,1;[])")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]


def test_specialize_identity(capsys):
    code, out, _ = run_cli(capsys, "specialize", "--q", "2", "--n", "1", "id(2)")
    payload = json.loads(out)
    assert payload["entries"] == [[i, i, 1] for i in range(4)]


def test_specialize_symbolic_flag_errors(capsys):
    code, _, err = run_cli(
        capsys, "specialize", "--q", "2", "--n", "1", "--t", "sym", "eps* . eps"
    )
    assert code == 2 and "symbolic" in err


def test_specialize_substitutes_qn(capsys):
    code, out, _ = run_cli(capsys, "specialize", "--q", "2", "--n", "2", "eps* . eps")
    assert json.loads(out)["entries"] == [[0, 0, 4]]


def test_specialize_guard_exit_3(capsys):
    code, _, err = run_cli(capsys, "specialize", "--q", "2", "--n", "8", "id(3)")
    assert code == 3


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--q", "2", "--s", "1", "--k", "1")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run_cli(capsys, "count", "--q", "3", "--s", "2", "--k", "1")
    assert out.strip() == "28"  # 1 + 13 + 13 + 1 subspaces of F_3^3


def test_knop_convert_self_orthogonal(capsys):
    code, out, _ = run_cli(capsys, "knop-convert", "--q", "2", "rel(2;1,1;[[1,1]])")
    assert code == 0 and out.strip() == "rel(2;1,1;[[1,1]])"


def test_knop_convert_involution(capsys):
    _, once, _ = run_cli(capsys, "knop-convert", "--q", "3", "rel(3;1,1;[[1,1]])")
    _, twice, _ = run_cli(capsys, "knop-convert", "--q", "3", once.strip())
    assert twice.strip() == "rel(3;1,1;[[1,1]])"


def test_gram_text(capsys):
    code, out, _ = run_cli(capsys, "gram", "--q", "2", "--s", "0", "--k", "1")
    assert code == 0
    assert "det = t - 1" in out
    assert "rational roots: 1" in out


def test_gram_json_roots_are_powers_of_q(capsys):
    code, out, _ = run_cli(capsys, "gram", "--q", "2", "--s", "0", "--k", "1", "--format", "json")
    payload = json.loads(out)
    for root in payload["rational_roots"]:
        value = int(root)
        while value % 2 == 0:
            value //= 2
        assert value == 1


def test_verify_suites_pass(capsys):
    for suite, extra in [
        ("axioms", ["--q", "3"]),
        ("lemmas", ["--q", "2"]),
        ("knop", ["--q", "2", "--trials", "50", "--seed", "7"]),
        ("functor", ["--q", "2", "--n", "1", "--trials", "40", "--seed", "7"]),
        ("relinfty", ["--q", "2", "--n", "1", "--trials", "20", "--seed", "7"]),
    ]:
        code, out, _ = run_cli(capsys, "verify", suite, *extra)
        assert code == 0, (suite, out)
        assert f"PASS suite {suite}" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "knop", "--q", "2", "--trials", "20", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["pass"] is True and payload["suite"] == "knop"


def test_determinism_byte_identical():
    argv = [
        sys.executable, "-m", "relcat.cli", "verify", "functor",
        "--q", "2", "--n", "1", "--trials", "30", "--seed", "99",
    ]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout and first.stderr == second.stderr


def test_eval_file_bindings(tmp_path, capsys):
    script = tmp_path / "prog.rc"
    script.write_text("cap := eps* . m ; cap . coev")
    code, out, _ = run_cli(capsys, "eval", "--q", "2", "--file", str(script))
    assert code == 0 and out.strip() == "t * rel(2;0,0;[])"


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "count", "--q", "2", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip() == "5"


def assert_usage_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2, (argv, code, err)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_bad_field_orders_are_usage_errors(capsys):
    for q in ("4", "2^9", "1", "abc", "2^x", "2^2^2"):
        assert_usage_error(capsys, "count", "--q", q)


def test_ragged_relation_literal_is_a_parse_error(capsys):
    assert_usage_error(capsys, "eval", "--q", "2", "rel(2;1,1;[[1],[1,1]])")
    _, _, err = run_cli(capsys, "eval", "--q", "2", "rel(2;1,1;[[1],[1,1]])")
    assert "at position" in err


def test_bad_t_values_are_usage_errors(capsys):
    for t in ("abc", "1/0"):
        assert_usage_error(capsys, "eval", "--q", "2", "--t", t, "eps* . eps")
        assert_usage_error(capsys, "gram", "--q", "2", "--t", t)


def test_bad_scalars_are_usage_errors(capsys):
    assert_usage_error(capsys, "eval", "--q", "2", "--t", "0", "t^-1 * id(1)")
    assert_usage_error(capsys, "specialize", "--q", "2", "--n", "1", "--t", "sym", "t^-1 * id(1)")
    assert_usage_error(capsys, "eval", "--q", "2", "(t + 1/0) * id(1)")


def test_unreadable_paths_are_usage_errors(tmp_path, capsys):
    assert_usage_error(capsys, "eval", "--q", "2", "--file", str(tmp_path / "missing.rc"))
    assert_usage_error(capsys, "count", "--output", str(tmp_path / "no" / "out.txt"))


def test_negative_sizes_are_usage_errors(capsys):
    assert_usage_error(capsys, "specialize", "--q", "2", "--n", "-1", "id(1)")
    assert_usage_error(capsys, "gram", "--s", "-1")
    assert_usage_error(capsys, "count", "--s", "-2")
    assert_usage_error(capsys, "count", "--k", "-1")
    assert_usage_error(capsys, "verify", "functor", "--max-arity", "-1", "--trials", "3")


def test_zero_trials_never_pass(capsys):
    # a suite that ran no trial must not print PASS
    for suite in ("functor", "knop", "relinfty"):
        for trials in ("0", "-3"):
            assert_usage_error(capsys, "verify", suite, "--trials", trials)


def assert_guard_error(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0, argv
    assert code == 3 and out == "", (argv, code, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_gram_guard_counts_subspaces(capsys):
    # q^r = 2^20 passes a q^r guard, but F_2^20 has about 2^103 subspaces
    assert_guard_error(capsys, "gram", "--q", "2", "--s", "10", "--k", "10")


def test_count_large_prime_field(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "count", "--q", "1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == "1000000000000000006\n"  # 1 + (q + 1) + 1 subspaces of F_q^2


def test_count_too_many_digits_is_a_guard_error(capsys):
    # F_2^241 has a 4372-digit number of subspaces, more than Python prints
    assert_guard_error(capsys, "count", "--q", "2", "--s", "240")
    assert_guard_error(capsys, "count", "--q", "2", "--s", "2000")
    # the primality of p is only decided below 3.3e24
    assert_guard_error(capsys, "count", "--q", "100000000000000000000000000319")


def test_count_large_value(capsys):
    code, out, _ = run_cli(capsys, "count", "--q", "2", "--s", "100")
    assert code == 0
    # the exact text the earlier Fraction-based Gaussian binomials printed
    assert out == (
        "3709614607564461147236528124189364923750614764287748750449454440533026096473"
        "6007176530248273825410152853473891129181830020967839766703823301947960732263"
        "4017933494731601250331372547310218668856250708033727389891510813430603788629"
        "3818645821166931535618269680101700786324463569245407583229306007421918214395"
        "8277848024784875217027005698306364178111389280545842695796822136733633309441"
        "5816189026937665715942712005713275759861492783871413044339144361163751671366"
        "3438064294926077824682370666330030520622407705301464535586442670578456760742"
        "1728207202257438597036361070727774553370551666013263003232843720391642035445"
        "5546212219902877930441062834305428954765376708834836828655860182494077599823"
        "8212557991328250087299340441413725959065326849445607322492216871960579090361"
        "990958614\n"
    )


def test_oversized_identities_are_guard_errors(capsys):
    # id(k) needs a k x 2k basis; id(5000) alone would print 5e7 cells
    assert_guard_error(capsys, "eval", "--q", "2", "id(100000000)")
    assert_guard_error(capsys, "specialize", "--q", "2", "--n", "1", "id(100000000)")
    assert_guard_error(capsys, "eval", "--q", "2", "id(5000)")
    # a literal with no rows still has an orthogonal complement to build
    assert_guard_error(capsys, "knop-convert", "--q", "2", "rel(2;100000000,0;[])")


def test_pair_suites_guard_before_building_pairs(capsys):
    # the axiom and lemma pairs loop over F_q x F_q and F_q; q^n is refused first
    assert_guard_error(capsys, "verify", "axioms", "--q", "101^8")
    assert_guard_error(capsys, "verify", "lemmas", "--q", "101^8")


def test_standard_target_guard_counts_cells_and_pairs(capsys):
    # plus has q^(2n) cells and the axiom list 2q^2 + 4q + 26 pairs; q^n alone
    # let these through to run past 10 s
    assert_guard_error(capsys, "verify", "axioms", "--q", "4093")
    assert_guard_error(capsys, "verify", "axioms", "--q", "2^8")
    assert_guard_error(capsys, "verify", "axioms", "--q", "2^6", "--n", "2")
    assert_guard_error(capsys, "verify", "lemmas", "--q", "2^6", "--n", "2")
    assert_guard_error(capsys, "verify", "axioms", "--q", "2", "--n", "100000000")
    # q = 61 has 3721 plus cells but 7713 axiom pairs
    assert_guard_error(capsys, "verify", "axioms", "--q", "61")


def test_random_relations_guard_before_building_rows(capsys):
    assert_guard_error(capsys, "verify", "knop", "--q", "2", "--max-arity", "3000", "--trials", "1")
    assert_guard_error(
        capsys, "verify", "relinfty", "--q", "2", "--max-arity", "3000", "--trials", "1"
    )


def test_largest_allowed_identity_prints(capsys):
    code, out, _ = run_cli(capsys, "eval", "--q", "2", "id(400)")
    assert code == 0
    assert out.startswith("rel(2;400,400;[[1,") and out.count("[") == 401


def test_count_over_large_extension_fields(capsys):
    # the modulus of F_{p^e} is found by Rabin's test, not by trial division
    for q, count in (
        ("1000000007^2", "1000000014000000052"),
        ("10007^3", "1002101470346"),
        ("101^8", "10828567056280804"),
    ):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "count", "--q", q)
        assert time.perf_counter() - start < 1.0, q
        assert code == 0 and out == count + "\n"


def test_relinfty_guard_counts_hat_f_work(capsys):
    # hat_f expands a product of two draws, a 12x6 normal form at max-arity
    # 3: D^6 * 72^2 steps, which ran past 40 s at these fields
    assert_guard_error(capsys, "verify", "relinfty", "--q", "2^3", "--trials", "2")
    assert_guard_error(capsys, "verify", "relinfty", "--q", "2^4", "--trials", "1")


WITNESS = re.compile(
    r"\[(\d+) failures; first at trial (\d+) of seed 7: "
    r"(s \. r|r1 @ r2) with (?:r|r1) = (rel\([^)]*\)), (?:s|r2) = (rel\([^)]*\))\]$"
)


def test_functor_failure_names_a_witness(capsys, monkeypatch):
    # a corrupted f_R doubles the matrix of each line (a relation of
    # dimension 1), so some trials of both checks fail
    def corrupted(rel, n):
        m = f_r_matrix(rel, n)
        return ConcreteMap(m.field, n, m.s, m.k, m.mat.scale(2)) if rel.dim == 1 else m

    monkeypatch.setattr(suites, "f_r_matrix", corrupted)
    argv = ["verify", "functor", "--q", "2", "--n", "1", "--seed", "7"]
    code, out, _ = run_cli(capsys, *argv, "--trials", "20")
    assert code == 1
    comp, mono, last = out.splitlines()
    assert last == "FAIL suite functor"
    for line, shape in ((comp, "s . r"), (mono, "r1 @ r2")):
        assert line.startswith("FAIL "), line
        bad, trial, expr, left, right = WITNESS.search(line).groups()
        assert int(bad) >= 1 and 1 <= int(trial) <= 20 and expr == shape
        # the relation texts are input to relcat specialize
        text = f"{right} . {left}" if expr == "s . r" else f"{left} @ {right}"
        code, _, err = run_cli(capsys, "specialize", "--q", "2", "--n", "1", text)
        assert code == 0, err
    # the trial index reproduces the first composition failure on its own
    _, trial, _, left, right = WITNESS.search(comp).groups()
    _, out, _ = run_cli(capsys, *argv, "--trials", trial)
    assert f"[1 failures; first at trial {trial} of seed 7: s . r with r = {left}, s = {right}]" in out


def corrupt_knop_diamond(r, s):
    # a wrong defect whenever the first argument is a line
    image, e = knop_diamond(r, s)
    return image, e + (r.dim == 1)


def test_knop_failure_names_a_witness(capsys, monkeypatch):
    monkeypatch.setattr(suites, "knop_diamond", corrupt_knop_diamond)
    argv = ["verify", "knop", "--q", "2", "--seed", "7"]
    code, out, _ = run_cli(capsys, *argv, "--trials", "20")
    assert code == 1
    line, last = out.splitlines()
    assert line.startswith("FAIL orthogonal indexing q=2 (20 trials)") and last == "FAIL suite knop"
    bad, trial, expr, left, right = WITNESS.search(line).groups()
    assert int(bad) >= 1 and 1 <= int(trial) <= 20 and expr == "s . r"
    code, _, err = run_cli(capsys, "eval", "--q", "2", f"{right} . {left}")
    assert code == 0, err
    # the trial index reproduces the first failure on its own
    _, out, _ = run_cli(capsys, *argv, "--trials", trial)
    assert f"[1 failures; first at trial {trial} of seed 7: s . r with r = {left}, s = {right}]" in out


def test_relinfty_failures_name_witnesses(capsys, monkeypatch):
    argv = ["verify", "relinfty", "--q", "2", "--n", "1", "--seed", "7", "--trials", "10",
            "--max-arity", "2"]

    def corrupted(data, rel):
        m = hat_f(data, rel)
        return m.scale(2) if rel.dim == 1 else m

    monkeypatch.setattr(suites, "hat_f", corrupted)
    monkeypatch.setattr(suites, "rel_infty_stability", lambda rel, n: rel.dim != 1)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    closure, realization, stability, last = out.splitlines()
    assert closure == "PASS closure and zero defect q=2 (10 trials)  [0 failures]"
    assert last == "FAIL suite relinfty"
    assert WITNESS.search(realization), realization
    assert re.search(r"\[\d+ failures; first at trial \d+ of seed 7: r = rel\([^)]*\)\]$",
                     stability), stability
    monkeypatch.setattr(suites, "is_rel_infty", lambda rel: rel.dim != 1)
    _, out, _ = run_cli(capsys, *argv)
    assert WITNESS.search(out.splitlines()[0]).group(3) == "s . r"


def test_lemma_failures_name_a_cell(capsys, monkeypatch):
    argv = ["verify", "lemmas", "--q", "2", "--seed", "7"]
    _, clean, _ = run_cli(capsys, *argv)

    def corrupted(field, n):
        # the zero scaling acts as the identity
        data = standard_target(field, n)
        mu = {**data.mu, 0: data.mu[1]}
        return FrobeniusData(field, data.dim, data.m, data.m_star, data.eps_star, data.plus,
                             data.z, mu, data.eps)

    monkeypatch.setattr(suites, "standard_target", corrupted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and out.splitlines()[-1] == "FAIL suite lemmas"
    pairs = {name: (lhs, rhs) for name, lhs, rhs in suites.mu_lemma_terms(Fq(2), 7)}
    data = corrupted(Fq(2), 1)
    failed = 0
    for before, after in zip(clean.splitlines()[:-1], out.splitlines()[:-1], strict=True):
        if after.startswith("PASS "):
            assert after == before
            continue
        failed += 1
        name, r, c = re.fullmatch(
            r"FAIL (.*)  \[matrix mismatch at D=2, first at \((\d+), (\d+)\)\]", after
        ).groups()
        # the named cell is where the two sides differ on the structure
        lhs, rhs = (term_eval(data, side).data for side in pairs[name])
        cell = (int(r), int(c))
        assert lhs.get(cell, 0) != rhs.get(cell, 0), after
    assert failed


def test_rank_stability_passes_only_on_checks_that_ran(capsys, monkeypatch):
    # at n = 20 only [0] -> [0] draws pass the arity guard, so some seeds run
    # no stability check, and those must not pass
    calls = []

    def counted(rel, n):
        calls.append(rel)
        return rel_infty_stability(rel, n)

    monkeypatch.setattr(suites, "rel_infty_stability", counted)
    outcomes = set()
    for seed in range(1, 9):
        calls.clear()
        _, out, _ = run_cli(capsys, "verify", "relinfty", "--q", "2", "--n", "20",
                            "--trials", "1", "--max-arity", "1", "--seed", str(seed))
        line = out.splitlines()[2]
        if calls:
            assert line == "PASS rank stability n=20  [0 failures]", (seed, line)
        else:
            assert line == "FAIL rank stability n=20  [0 failures; only 0 of 1 trials ran]", line
        outcomes.add(bool(calls))
    assert outcomes == {True, False}


def test_oversized_numbers_are_guard_errors(capsys):
    # Python converts no int of more than 4300 digits to or from text
    x, big = "7" * 3000, "3" * 5000
    assert_guard_error(capsys, "eval", "--q", "2", "--t", "2", "t^20000 * id(1)")
    assert_guard_error(capsys, "specialize", "--q", "2", "--n", "1", "t^20000 * id(1)")
    assert_guard_error(capsys, "eval", "--q", "2", f"({x} * id(1)) . ({x} * id(1))")
    assert_guard_error(capsys, "specialize", "--q", "2", "--n", "1", f"({x} * id(1)) . ({x} * id(1))")
    for expr in (f"{big} * id(1)", f"id({big})", f"t^{big} * id(1)"):
        assert_guard_error(capsys, "eval", "--q", "2", expr)
    # a long --t is refused by its digit count, which the error line gives
    nines = "9" * 4400
    for t in (nines, f"1/{nines}"):
        err = assert_guard_error(capsys, "eval", "--q", "2", "--t", t, "id(1)")
        assert "4400 digits" in err and nines not in err, err
    err = assert_guard_error(capsys, "gram", "--q", "2", "--t", "9" * 5000)
    assert "5000 digits" in err and nines not in err, err
    # an exponent counts its digits of 10^|e|, which Fraction would build
    for t in ("1e2000000", "1e-2000000"):
        err = assert_guard_error(capsys, "eval", "--q", "2", "--t", t, "id(1)")
        assert "2000001 digits" in err and t not in err, err
    code, out, _ = run_cli(capsys, "eval", "--q", "2", "--t", "1e5", "t * id(1)")
    assert code == 0 and out == "100000 * rel(2;1,1;[[1,1]])\n"
    # a large power of a small value is still exact
    code, out, _ = run_cli(capsys, "eval", "--q", "2", "--t", "-1", "t^20001 * id(1)")
    assert code == 0 and out == "-1 * rel(2;1,1;[[1,1]])\n"


# the flags each subcommand takes; every other flag is refused
FLAGS = {
    "eval": {"--file", "--q", "--t", "--format", "--output"},
    "specialize": {"--file", "--q", "--t", "--n", "--format", "--output"},
    "verify": {"--q", "--n", "--seed", "--trials", "--max-arity", "--format", "--output"},
    "gram": {"--s", "--k", "--q", "--t", "--format", "--output"},
    "count": {"--s", "--k", "--q", "--format", "--output"},
    "knop-convert": {"--q", "--format", "--output"},
}
POSITIONAL = {"eval": ["id(1)"], "specialize": ["id(1)"], "verify": ["knop"],
              "knop-convert": ["rel(2;1,1;[])"]}
ALL_FLAGS = ["--q", "--t", "--seed", "--trials", "--max-arity", "--n", "--s", "--k", "--file",
           "--format", "--output", "--direction"]


def test_each_subcommand_takes_only_its_flags():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    settable = 0
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.dest != "help"]
        flags = {s for a in actions for s in a.option_strings}
        assert flags == FLAGS[name], name
        settable += len(actions)
    assert settable == 36


def test_flags_a_subcommand_does_not_take_exit_2(capsys):
    for command, flags in FLAGS.items():
        for flag in ALL_FLAGS:
            if flag in flags:
                continue
            argv = [command, *POSITIONAL.get(command, []), flag, "1"]
            try:
                main(argv)
                code = None
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            assert code == 2 and out == "", argv
