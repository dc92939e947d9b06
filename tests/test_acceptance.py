"""Acceptance criteria.

One test per criterion, named for it, asserting exact (zero-tolerance)
equality throughout.  Each test also prints a PASS line (visible under
pytest -s); the pytest -v report line per test is the per-criterion
verdict.  Randomized sweeps are fully determined by fixed seeds.

The concrete sweeps draw arities <= 3 subject to the feasibility guard
q^(n*(s+k)) <= 2^12 per hom-space, so the largest-field largest-rank
corner draws smaller arities while every (q, n) pair is exercised and the
full arity range appears at n = 1 and at q = 2, n = 2.
"""

import random
import subprocess
import sys

from helpers import inverse, to_dense

from relcat import category as cat
from relcat.category import Morphism
from relcat.concrete import f_r_matrix, independence_check, rel_infty_stability
from relcat.dsl import eval_formal
from relcat.field import Fq
from relcat.frobenius import frobenius_axiom_terms, hat_f, standard_target, term_eval
from relcat.poly import PolyQ, det_poly, rational_roots
from relcat.relations import (
    is_rel_infty,
    knop_diamond,
    product,
    random_invertible,
    random_rel_infty,
    random_relation,
    star,
)
from relcat.suites import mu_lemma_terms, run_term_pairs
from relcat.terms import Gen, decompose_generators

F2, F3, F4 = Fq(2), Fq(3), Fq(2, 2)
CELL_GUARD = 2**12


def _ok(message):
    print(f"PASS {message}")


def _guarded_arities(rng, field, n, count, max_arity=3):
    while True:
        arities = [rng.randrange(max_arity + 1) for _ in range(count)]
        pairs = zip(arities, arities[1:])
        if all(field.q ** (n * (a + b)) <= CELL_GUARD for a, b in pairs):
            return arities


def test_criterion_01_composition_oracle():
    rng = random.Random(101)
    grid = [(F, n) for F in (F2, F3, F4) for n in (1, 2)]
    trials = 0
    while trials < 504:
        field, n = grid[trials % len(grid)]
        s, k, l = _guarded_arities(rng, field, n, 3)
        if field.q ** (n * (s + l)) > CELL_GUARD:
            continue
        r = random_relation(rng, field, s, k)
        t = random_relation(rng, field, k, l)
        sr, d = star(r, t)
        lhs = f_r_matrix(t, n).mat @ f_r_matrix(r, n).mat
        rhs = f_r_matrix(sr, n).mat.scale(field.q ** (n * d))
        assert lhs == rhs, (r, t, n)
        trials += 1
    _ok(f"criterion 1: composition oracle, {trials} pairs, q in {{2,3,4}}, n in {{1,2}}")


def test_criterion_02_monoidality_oracle():
    rng = random.Random(102)
    grid = [(F, n) for F in (F2, F3, F4) for n in (1, 2)]
    trials = 0
    while trials < 204:
        field, n = grid[trials % len(grid)]
        s1, k1 = _guarded_arities(rng, field, n, 2, 2)
        s2, k2 = _guarded_arities(rng, field, n, 2, 2)
        if field.q ** (n * (s1 + s2 + k1 + k2)) > CELL_GUARD:
            continue
        r1 = random_relation(rng, field, s1, k1)
        r2 = random_relation(rng, field, s2, k2)
        lhs = f_r_matrix(product(r1, r2), n).mat
        rhs = f_r_matrix(r1, n).mat.kron(f_r_matrix(r2, n).mat)
        assert lhs == rhs, (r1, r2, n)
        trials += 1
    _ok(f"criterion 2: monoidality oracle (Kronecker), {trials} pairs")


def test_criterion_03_basis_theorem():
    rank2, basis2 = independence_check(F2, 1, 1, 2)
    assert (rank2, basis2) == (5, True)
    rank1, basis1 = independence_check(F2, 1, 1, 1)
    assert rank1 < 5 and not basis1
    _ok(f"criterion 3: basis at n=2 (rank 5/5), dependent at n=1 (rank {rank1}/5)")


def test_criterion_04_knop_equivalence():
    rng = random.Random(104)
    fields = [F2, F3, F4]
    for trial in range(504):
        field = fields[trial % 3]
        s, k, l = (rng.randrange(4) for _ in range(3))
        r = random_relation(rng, field, s, k)
        t = random_relation(rng, field, k, l)
        sr, d = star(r, t)
        image, e = knop_diamond(r.perp(), t.perp())
        assert image == sr.perp() and e == d, (r, t)
    _ok("criterion 4: orthogonal indexing (diamond = perp of star, e = d), 504 pairs")


def test_criterion_05_frobenius_axiom_suite():
    for field in (F2, F3, F4):
        results = run_term_pairs(field, frobenius_axiom_terms(field), None)
        failures = [r.name for r in results if not r.passed]
        assert not failures, (field.q, failures)
    _ok("criterion 5: all Frobenius-space axioms hold formally for q in {2,3,4}, all a,b")


def test_criterion_06_lemma_suite():
    for field in (F2, F3):
        results = run_term_pairs(field, mu_lemma_terms(field, seed=106), standard_target(field, 1))
        failures = [r.name for r in results if not r.passed]
        assert not failures, (field.q, failures)
    _ok("criterion 6: matrix-action lemma suite holds formally and on the standard target")


def test_criterion_07_generator_round_trip():
    rng = random.Random(107)
    targets = {field: standard_target(field, 1) for field in (F2, F3)}
    for trial in range(300):
        field = (F2, F3)[trial % 2]
        s, k = rng.randrange(3), rng.randrange(3)
        rel = random_relation(rng, field, s, k)
        term = decompose_generators(rel)
        assert eval_formal(term, field) == Morphism.from_relation(rel), rel
        assert term_eval(targets[field], term) == f_r_matrix(rel, 1).mat, rel
    _ok("criterion 7: generator decomposition round trip, 300 relations, both evaluators")


def test_criterion_08_pairing_form_calculus():
    rng = random.Random(108)
    for trial in range(200):
        field = (F2, F3)[trial % 2]
        s, k, l = (rng.randrange(3) for _ in range(3))
        r = random_relation(rng, field, s, k)
        t = random_relation(rng, field, k, l)
        fr, ft = Morphism.from_relation(r), Morphism.from_relation(t)
        assert cat.t_iso(cat.compose(ft, fr)) == cat.ast(cat.t_iso(fr), cat.t_iso(ft), k)
        sr, d = star(r, t)
        assert cat.ast(cat.phi(r), cat.phi(t), k) == cat.phi(sr).scale(PolyQ.t_power(d))
    _ok("criterion 8: pairing-form calculus (T of compositions, t^d law), 200 pairs")


def test_criterion_09_stable_subcategory():
    rng = random.Random(109)
    data = standard_target(F2, 1)
    for _ in range(200):
        s, k, l = (rng.randrange(4) for _ in range(3))
        r1 = random_rel_infty(rng, F2, s, k)
        r2 = random_rel_infty(rng, F2, k, l)
        sr, d = star(r1, r2)
        assert d == 0 and is_rel_infty(sr)
        assert hat_f(data, r2) @ hat_f(data, r1) == hat_f(data, sr)
        r3 = random_rel_infty(rng, F2, rng.randrange(3), rng.randrange(3))
        assert hat_f(data, r1).kron(hat_f(data, r3)) == hat_f(data, product(r1, r3))
    for n in (1, 2):
        for _ in range(30):
            s, k = rng.randrange(3), rng.randrange(3)
            if F2.q ** ((n + 1) * (s + k)) > CELL_GUARD:
                continue
            assert rel_infty_stability(random_rel_infty(rng, F2, s, k), n)
    _ok("criterion 9: stable subfamily closed, defect-free, realized, rank-stable")


def test_criterion_10_duality():
    rng = random.Random(110)
    for trial in range(100):
        field = (F2, F3, F4)[trial % 3]
        d = rng.randrange(1, 4)
        a = random_invertible(rng, field, d)
        assert cat.dual(cat.mu_morphism(a)) == cat.mu_morphism(inverse(a))
    for _ in range(100):
        field = rng.choice([F2, F3])
        f = Morphism.from_relation(random_relation(rng, field, rng.randrange(3), rng.randrange(3)))
        assert cat.dual(cat.dual(f)) == f
    for field in (F2, F3):
        for k in (1, 2):
            ident = cat.identity(field, k)
            assert cat.compose(
                cat.tensor(cat.ev_bar(field, k), ident),
                cat.tensor(ident, cat.coev_bar(field, k)),
            ) == ident
            assert cat.compose(
                cat.tensor(ident, cat.ev_bar(field, k)),
                cat.tensor(cat.coev_bar(field, k), ident),
            ) == ident
    _ok("criterion 10: dual of a scaling is the inverse scaling; involution; snakes")


def test_criterion_11_trace_dimension():
    assert cat.trace(cat.identity(F2, 1)) == PolyQ.t_power(1)
    assert cat.trace(cat.identity(F3, 1)) == PolyQ.t_power(1)
    for field in (F2, F3):
        for n in (1, 2):
            data = standard_target(field, n)
            loop = term_eval(data, Gen("eps*")) @ term_eval(data, Gen("eps"))
            assert to_dense(loop) == [[field.q**n]]
    _ok("criterion 11: trace of the identity is t; counit of unit is q^n concretely")


def test_criterion_12_semisimplicity_probe():
    _, mat = cat.gram(F2, 0, 1)
    det = det_poly(mat)
    assert not det.is_zero()
    roots = rational_roots(det)
    assert roots
    for root in roots:
        assert root.denominator == 1 and root >= 1
        value = int(root)
        while value % 2 == 0:
            value //= 2
        assert value == 1, f"root {root} is not a power of 2"
    _ok(f"criterion 12: gram determinant {det} has rational roots {roots}, all powers of 2")


def test_criterion_13_cli_determinism():
    argv = [
        sys.executable, "-m", "relcat.cli", "verify", "functor",
        "--q", "2", "--n", "1", "--trials", "25", "--seed", "13",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    _ok("criterion 13: identical flags and seed give byte-identical CLI output")
