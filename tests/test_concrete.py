"""The specialization functor as the ground-truth oracle."""

import random
import time
from fractions import Fraction
from functools import reduce

import pytest

from helpers import (
    concrete_compose,
    concrete_tensor,
    full_space,
    hom_dimension,
    nonzero_cells,
    to_dense,
    zero_space,
)

from relcat import category as cat
from relcat import concrete, matrix, poly, relations
from relcat.category import Morphism
from relcat.concrete import (
    ConcreteMap,
    f_r_matrix,
    independence_check,
    rel_infty_stability,
    specialize,
)
from relcat.errors import ArityMismatch, NotRelInfty, TooLarge
from relcat.field import Fq
from relcat.matrix import MatFq, enumerate_subspaces
from relcat.qmat import QMat
from relcat.relations import (
    Relation,
    product,
    random_invertible,
    random_rel_infty,
    random_relation,
    star,
)

F2, F3, F4, F5 = Fq(2), Fq(3), Fq(2, 2), Fq(5)
# the characteristic-2 XOR and odd-characteristic table paths of Fq.translate
F8, F9 = Fq(2, 3), Fq(3, 2)


def _reference_cells(rel: Relation, n: int) -> dict:
    """Cells of f_R at rank n by double enumeration of input and output tuples.

    Digit n*i + j of a tuple index is coordinate j of vector i; a pair is
    kept when, in every coordinate slot j, the (domain | codomain) vector of
    slot j satisfies every basis equation.
    """
    F, s, k, q = rel.field, rel.s, rel.k, rel.field.q
    equations = rel.basis.tolist()
    satisfied = {}

    def ok(vec):
        if vec not in satisfied:
            satisfied[vec] = all(
                reduce(F.add, (F.mul(b, v) for b, v in zip(eq, vec)), 0) == 0 for eq in equations
            )
        return satisfied[vec]

    def digits(code, count):
        return [(code // q**d) % q for d in range(count)]

    cells = {}
    for col in range(q ** (n * s)):
        x = digits(col, n * s)
        for row in range(q ** (n * k)):
            y = digits(row, n * k)
            if all(
                ok(tuple(x[n * i + j] for i in range(s)) + tuple(y[n * i + j] for i in range(k)))
                for j in range(n)
            ):
                cells[(row, col)] = 1
    return cells


def _assert_matches_reference(rel: Relation, n: int):
    got = f_r_matrix(rel, n)
    q = rel.field.q
    assert (got.mat.rows, got.mat.cols) == (q ** (n * rel.k), q ** (n * rel.s))
    assert nonzero_cells(got.mat) == _reference_cells(rel, n), (rel, n)


def test_f_r_matrix_matches_reference():
    # every relation of every type with s + k <= 2, and with s + k = 3 over F_2:
    # pivot and free columns in every position.  F_8 and F_9 stop at n = 1
    # here (n = 2 is 4096-6561 pairs a relation); the random draws below
    # reach n = 2 and 3 on them
    for F, top, ranks in ((F2, 3, 3), (F3, 2, 3), (F4, 2, 3), (F8, 2, 2), (F9, 2, 2)):
        for r in range(top + 1):
            for basis in enumerate_subspaces(F, r):
                for s in range(r + 1):
                    rel = Relation(F, s, r - s, basis)
                    for n in range(ranks):
                        _assert_matches_reference(rel, n)
    # the zero and full spaces, s + k = 0 included, by name
    for F in (F2, F3, F4):
        for s, k in ((0, 0), (1, 0), (0, 1), (1, 2), (2, 1)):
            for rel in (zero_space(F, s, k), full_space(F, s, k)):
                for n in (1, 2):
                    _assert_matches_reference(rel, n)
    # seeded random relations with s, k <= 3; the double enumeration is kept
    # to at most 2^12 pairs
    rng = random.Random(47)
    for F in (F2, F3, F5, F4, F8, F9):
        for n in (1, 2, 3):
            done = 0
            while done < 8:
                s, k = rng.randrange(4), rng.randrange(4)
                if F.q ** (n * (s + k)) > 2**12:
                    continue
                _assert_matches_reference(random_relation(rng, F, s, k), n)
                done += 1


def test_f_r_matrix_is_independent_oracle(monkeypatch):
    # f_R is the oracle for star, product and the formal category, so it
    # must be built without any of them
    def forbidden(*args, **kwargs):
        raise AssertionError("f_r_matrix called the formal layer")

    rng = random.Random(48)
    rels = [random_relation(rng, F, rng.randrange(3), rng.randrange(3)) for F in (F2, F3, F4)
            for _ in range(5)]
    expected = [_reference_cells(rel, 2) for rel in rels]
    monkeypatch.setattr(relations, "star", forbidden)
    monkeypatch.setattr(relations, "product", forbidden)
    monkeypatch.setattr(cat, "compose", forbidden)
    monkeypatch.setattr(cat, "tensor", forbidden)
    for rel, cells in zip(rels, expected):
        assert nonzero_cells(f_r_matrix(rel, 2).mat) == cells


def test_f_r_matrix_does_no_elimination(monkeypatch):
    # a relation's basis is already in RREF, so its kernel is read off it; every
    # elimination in the library, MatFq.rref too, runs matrix.row_reduce
    def forbidden(*args, **kwargs):
        raise AssertionError("f_r_matrix ran an elimination")

    rng = random.Random(49)
    rels = [random_relation(rng, F, rng.randrange(4), rng.randrange(4)) for F in (F2, F3, F4)
            for _ in range(8)]
    rels += [zero_space(F3, 0, 0), full_space(F4, 1, 1)]
    expected = [_reference_cells(rel, 1) for rel in rels]
    monkeypatch.setattr(matrix, "row_reduce", forbidden)
    for rel, cells in zip(rels, expected):
        assert nonzero_cells(f_r_matrix(rel, 1).mat) == cells


def test_f_r_matrix_refuses_one_relation_past_the_cell_guard(monkeypatch):
    # the first cell counts past CELL_GUARD = 2^18 (2^19 at q = 2, 3^12 at
    # q = 3) are refused before a cell is built; 2^18 and 3^11 cells pass
    # the count
    assert concrete.CELL_GUARD == 2**18
    past = [
        (Relation.from_rows(F2, 9, 10, []), 1),
        (Relation.from_rows(F2, 10, 10, [[1] + [0] * 19]), 1),
        (Relation.from_rows(F2, 5, 5, []), 2),
        (Relation.from_rows(F3, 6, 6, []), 1),
    ]
    for rel, n in past:
        start = time.perf_counter()
        with pytest.raises(TooLarge) as refused:
            f_r_matrix(rel, n)
        assert time.perf_counter() - start < 1.0, (rel, n)
        assert str(refused.value) == (
            f"f_R of a [{rel.s}] -> [{rel.k}] relation: more than 262144 f_R cells at n = {n}"
        )
    for rel, n in ((Relation.from_rows(F2, 9, 9, []), 1), (Relation.from_rows(F3, 6, 5, []), 1)):
        concrete._check_cells(rel.field, n, [rel], "at the bound")
    # with a guard of 16 cells, an f_R of exactly 16 cells is built and one
    # of 32 is refused
    monkeypatch.setattr(concrete, "CELL_GUARD", 16)
    assert f_r_matrix(Relation.from_rows(F2, 2, 2, []), 1).mat.nnz() == 16
    assert f_r_matrix(Relation.from_rows(F2, 1, 1, []), 2).mat.nnz() == 16
    with pytest.raises(TooLarge) as refused:
        f_r_matrix(Relation.from_rows(F2, 2, 3, []), 1)
    assert str(refused.value) == "f_R of a [2] -> [3] relation: more than 16 f_R cells at n = 1"


def test_all_ones_map():
    rel = zero_space(F2, 1, 1)
    assert to_dense(f_r_matrix(rel, 1).mat) == [[1, 1], [1, 1]]


def test_zero_vector_inclusion():
    rel = Relation(F2, 0, 1, MatFq.identity(F2, 1))
    assert to_dense(f_r_matrix(rel, 1).mat) == [[1], [0]]


def test_kill_nonzero_then_sum():
    rel = Relation.from_rows(F2, 1, 1, [[1, 0]])
    # the zero input goes to the sum of everything, others to 0
    assert to_dense(f_r_matrix(rel, 1).mat) == [[1, 0], [1, 0]]


def test_scalar_multiple_map():
    # the graph of multiplication by b acts as v -> b v
    for b in F3.elements():
        rel = Relation.from_rows(F3, 1, 1, [[F3.neg(b), 1]])
        mat = f_r_matrix(rel, 1).mat
        expected = QMat(3, 3, {(F3.mul(b, v), v): 1 for v in range(3)})
        assert mat == expected


def test_composition_oracle_random():
    rng = random.Random(41)
    done = 0
    while done < 200:
        F = rng.choice([F2, F3])
        n = rng.choice([1, 2])
        s, k, l = (rng.randrange(4) for _ in range(3))
        if max(F.q ** (n * (s + k)), F.q ** (n * (k + l)), F.q ** (n * (s + l))) > 2**12:
            continue
        r = random_relation(rng, F, s, k)
        t = random_relation(rng, F, k, l)
        sr, d = star(r, t)
        lhs = f_r_matrix(t, n).mat @ f_r_matrix(r, n).mat
        assert lhs == f_r_matrix(sr, n).mat.scale(F.q ** (n * d))
        done += 1


def test_monoidality_oracle_random():
    rng = random.Random(42)
    for _ in range(150):
        F = rng.choice([F2, F3])
        r1 = random_relation(rng, F, rng.randrange(3), rng.randrange(3))
        r2 = random_relation(rng, F, rng.randrange(3), rng.randrange(3))
        lhs = f_r_matrix(product(r1, r2), 1).mat
        assert lhs == f_r_matrix(r1, 1).mat.kron(f_r_matrix(r2, 1).mat)


def test_specialize_sums_terms():
    # 2 * all-ones at n=1 equals the square of the all-ones matrix
    rel = zero_space(F2, 1, 1)
    f = Morphism.from_relation(rel)
    square = cat.compose(f, f)
    got = specialize(square, 1).mat
    assert to_dense(got) == [[2, 2], [2, 2]]


def test_specialize_identity():
    ident = cat.identity(F2, 2)
    assert specialize(ident, 1).mat == QMat.identity(4)


def test_specialize_functorial():
    rng = random.Random(43)
    for _ in range(60):
        F = rng.choice([F2, F3])
        n = 1
        s, k, l = (rng.randrange(3) for _ in range(3))
        f = Morphism.from_relation(random_relation(rng, F, k, l))
        g = Morphism.from_relation(random_relation(rng, F, s, k))
        lhs = specialize(cat.compose(f, g), n)
        rhs = concrete_compose(specialize(f, n), specialize(g, n))
        assert lhs == rhs
        h = Morphism.from_relation(random_relation(rng, F, rng.randrange(3), rng.randrange(3)))
        assert specialize(cat.tensor(f, h), n) == concrete_tensor(specialize(f, n), specialize(h, n))


def test_specialize_keeps_integral_entries_as_ints():
    rel = zero_space(F3, 1, 1)
    one = specialize(Morphism.from_relation(rel), 1).mat
    assert one == f_r_matrix(rel, 1).mat and all(type(v) is int for v in one.data.values())
    # t = 3 and the coefficient 1/2 + 3/2 are integral too
    f = Morphism(F3, 1, 1, {rel: poly.PolyQ({0: Fraction(1, 2), 1: Fraction(1, 2)})})
    got = specialize(f, 1).mat
    assert got == f_r_matrix(rel, 1).mat.scale(2)
    assert all(type(v) is int for v in got.data.values())
    half = specialize(Morphism(F3, 1, 1, {rel: poly.PolyQ.const(Fraction(1, 2))}), 1).mat
    assert set(half.data.values()) == {Fraction(1, 2)}
    assert specialize(Morphism(F3, 1, 1, {}), 1).mat == QMat.zero(3, 3)


def test_specialize_evaluates_t():
    loop = cat.compose(cat.generator(F2, "eps*"), cat.generator(F2, "eps"))
    for n in (1, 2):
        got = specialize(loop, n).mat
        assert to_dense(got) == [[2**n]]


def test_independence_basis_and_dependence():
    assert independence_check(F2, 1, 1, 2) == (5, True)
    rank, is_basis = independence_check(F2, 1, 1, 1)
    assert rank < 5 and not is_basis
    assert independence_check(F2, 0, 0, 1) == (1, True)
    assert hom_dimension(F2, 1, 1) == 5
    # the width q^(n(s+k)) is refused from its exponent, before it is formed
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        independence_check(F2, 1, 1, 10**9)
    assert time.perf_counter() - start < 1.0
    # the stack of 374 vectorized 2^15-cell matrices, and the 67 of 2^16 cells
    # at [0] -> [4], are refused before any subspace is listed; at n = 0 the
    # 417199 one-cell f_R of F_2^8 are too many
    for s, k, n in ((3, 2, 3), (0, 4, 4), (4, 4, 0)):
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            independence_check(F2, s, k, n)
        assert time.perf_counter() - start < 1.0, (s, k, n)


def test_faithful_at_large_rank():
    # rank n >= s + k separates formal morphisms
    rng = random.Random(44)
    for _ in range(20):
        f = Morphism.from_relation(random_relation(rng, F2, 1, 1))
        g = Morphism.from_relation(random_relation(rng, F2, 1, 1))
        if f != g:
            assert specialize(f, 2) != specialize(g, 2)


def action_matrix(g: MatFq, s: int, n: int) -> QMat:
    """Permutation matrix of an invertible n x n matrix g acting on s-tuples over F_q^n."""
    F = g.field
    q, size = F.q, F.q ** (n * s)
    data = {}
    for col in range(size):
        # the base-q digits of the index: coordinate j of vector i weighs q^(n i + j)
        digits = [col // q**d % q for d in range(n * s)]
        moved = 0
        for i in range(s):
            vec = digits[n * i : n * (i + 1)]
            for j in range(n):
                acc = 0
                for c, v in zip(g.row(j), vec):
                    acc = F.add(acc, F.mul(c, v))
                moved += acc * q ** (n * i + j)
        data[(moved, col)] = 1
    return QMat(size, size, data)


def test_equivariance_spot_check():
    rng = random.Random(45)
    for _ in range(20):
        F = rng.choice([F2, F3])
        n = 2 if F is F2 else 1
        rel = random_relation(rng, F, rng.randrange(3), rng.randrange(2))
        g = random_invertible(rng, F, n)
        mat = f_r_matrix(rel, n).mat
        act_in = action_matrix(g, rel.s, n)
        act_out = action_matrix(g, rel.k, n)
        assert act_out @ mat == mat @ act_in


def test_rel_infty_stability_identity():
    ident = Relation.from_rows(F2, 1, 1, [[1, 1]])
    assert rel_infty_stability(ident, 1)
    assert rel_infty_stability(ident, 2)


def test_rel_infty_stability_rejects_non_members():
    with pytest.raises(NotRelInfty):
        rel_infty_stability(zero_space(F2, 1, 1), 1)


def test_rel_infty_stability_random():
    rng = random.Random(46)
    for _ in range(100):
        n = rng.choice([1, 2])
        s, k = rng.randrange(3), rng.randrange(3)
        if F2.q ** ((n + 1) * (s + k)) > 2**12:
            continue
        rel = random_rel_infty(rng, F2, s, k)
        assert rel_infty_stability(rel, n)


def test_rel_infty_stability_refuses_a_moved_cell(monkeypatch):
    # cell (0, 0) of a rank-(n+1) f_R, in the embedded column 0, moved out of
    # place: to row 1, to row q^n (a last coordinate 1, so not embedded), or
    # to column q^n (not embedded)
    rng = random.Random(47)
    real = concrete.f_r_matrix
    cases = 0
    for _ in range(20):
        n, s, k = rng.choice([1, 2]), rng.randrange(1, 3), rng.randrange(1, 3)
        if F2.q ** ((n + 1) * (s + k)) > 2**12:
            continue
        rel = random_rel_infty(rng, F2, s, k)
        big = real(rel, n + 1).mat
        cells = big.vec()
        assert cells[0] == 1
        for moved in (big.cols, 2**n * big.cols, 2**n):
            if moved in cells:
                continue
            data = dict(cells)
            del data[0]
            data[moved] = 1
            fake = ConcreteMap(F2, n + 1, s, k, QMat._trusted(big.rows, big.cols, data))

            def f_r(r, m, fake=fake):
                return fake if m > n else real(r, m)

            monkeypatch.setattr(concrete, "f_r_matrix", f_r)
            assert not rel_infty_stability(rel, n), (rel, n, moved)
            cases += 1
    assert cases > 10


def test_orbit_matrices():
    # orbit-basis matrices at rank >= s+k live on disjoint index sets and
    # sum back to the plain basis matrices
    n = 2
    rels = [Relation(F2, 1, 1, b) for b in enumerate_subspaces(F2, 2)]
    supports = []
    orbit_mats = {}
    for rel in rels:
        morphism = cat.orbit_invert({rel: Fraction(1)}, F2, 1, 1)
        mat = specialize(morphism, n).mat
        orbit_mats[rel] = mat
        supports.append(set(nonzero_cells(mat)))
    for i in range(len(rels)):
        for j in range(i + 1, len(rels)):
            assert not (supports[i] & supports[j])
    for rel in rels:
        recovered = specialize(cat.orbit_invert(cat.orbit_expand(rel), F2, 1, 1), n)
        assert recovered.mat == f_r_matrix(rel, n).mat


def test_concrete_shape_checks():
    a = f_r_matrix(zero_space(F2, 1, 1), 1)
    b = f_r_matrix(zero_space(F2, 0, 1), 1)
    with pytest.raises(ArityMismatch):
        concrete_compose(b, a)
    with pytest.raises(ArityMismatch):
        ConcreteMap(F2, 1, 1, 1, QMat.identity(3))
