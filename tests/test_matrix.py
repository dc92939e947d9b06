"""Exact linear algebra over F_q and subspace enumeration."""

import itertools
import random

import pytest

from helpers import inverse, kernel

from relcat.errors import ShapeMismatch, TooLarge
from relcat.field import Fq
from relcat.matrix import (
    MatFq,
    enumerate_subspaces,
    gaussian_binomial,
    row_reduce,
    subspace_count,
)

F2, F3, F4 = Fq(2), Fq(3), Fq(2, 2)


def all_vectors(F, r):
    return list(itertools.product(F.elements(), repeat=r))


def in_rowspace(F, rows, vec):
    """Brute-force membership: vec is an F-linear combination of rows."""
    span = {tuple([0] * len(vec))}
    for row in rows:
        new = set()
        for base in span:
            for c in F.elements():
                new.add(tuple(F.add(x, F.mul(c, y)) for x, y in zip(base, row)))
        span = new
    return tuple(vec) in span


def test_rref_duplicate_rows():
    m, rank = MatFq.from_rows(F2, [[1, 1], [1, 1]]).rref()
    assert m.tolist() == [[1, 1]] and rank == 1


def test_rref_scales_pivot():
    # oracle: scale the row by inv(2) = 2 over F_3
    m, rank = MatFq.from_rows(F3, [[2, 1]]).rref()
    assert m.tolist() == [[1, 2]] and rank == 1


def test_rref_empty():
    m, rank = MatFq.from_rows(F2, [], cols=3).rref()
    assert m.rows == 0 and rank == 0


def test_rref_idempotent_and_canonical():
    rng = random.Random(0)
    for _ in range(60):
        F = rng.choice([F2, F3, F4])
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
        a = MatFq(F, rows, cols, [rng.randrange(F.q) for _ in range(rows * cols)])
        red, _ = a.rref()
        assert red.rref()[0] == red
        # same row space under a random invertible row mix
        e = _random_invertible(rng, F, rows)
        assert (e @ a).rref()[0] == red


def _random_invertible(rng, F, n):
    while True:
        m = MatFq(F, n, n, [rng.randrange(F.q) for _ in range(n * n)])
        if m.is_invertible():
            return m


def reference_row_reduce(F, rows, cols):
    """Gauss-Jordan one entry at a time with the field's mul, sub and inv."""
    rows = [list(row) for row in rows]
    pivots, r = [], 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (17, 2)])
def test_row_reduce_matches_per_entry_reference(p, e):
    F = Fq(p, e)
    rng = random.Random(f"row_reduce {p}^{e}")

    def draw(n, cols):
        return [[rng.randrange(F.q) for _ in range(cols)] for _ in range(n)]

    cases = [[], [[]], [[], []], draw(2, 0), draw(3, 4)]
    for _ in range(60):
        n, cols = rng.randrange(6), rng.randrange(1, 7)
        rows = draw(n, cols)
        if rows and rng.random() < 0.3:
            rows.insert(rng.randrange(n + 1), [0] * cols)  # a zero row
        if rows and rng.random() < 0.3:
            zero = rng.randrange(cols)  # an all-zero column
            for row in rows:
                row[zero] = 0
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))  # a duplicate row
        cases.append(rows)
    for rows in cases:
        cols = len(rows[0]) if rows else rng.randrange(4)
        expected = reference_row_reduce(F, rows, cols)
        assert row_reduce(F, [list(row) for row in rows], cols) == expected, rows


def test_tolist_keeps_rows_without_columns():
    assert MatFq.zeros(F3, 2, 0).tolist() == [[], []]
    assert MatFq.zeros(F3, 0, 2).tolist() == []


def test_matmul_and_neg_match_per_entry_reference():
    rng = random.Random(4)
    for F in (F2, F3, F4, Fq(2, 3), Fq(3, 2), Fq(17, 2)):
        for _ in range(10):
            n, m, l = rng.randrange(4), rng.randrange(4), rng.randrange(4)
            a = MatFq(F, n, m, [rng.randrange(F.q) for _ in range(n * m)])
            b = MatFq(F, m, l, [rng.randrange(F.q) for _ in range(m * l)])
            product = [0] * (n * l)
            for i, j, k in itertools.product(range(n), range(l), range(m)):
                product[i * l + j] = F.add(product[i * l + j], F.mul(a[i, k], b[k, j]))
            assert (a @ b).entries == tuple(product)
            assert a.neg().entries == tuple(F.neg(x) for x in a.entries)


def test_matmul_identity():
    m = MatFq.from_rows(F2, [[1, 0], [1, 1]])
    assert MatFq.identity(F2, 2) @ m == m


def test_kernel_brute_force_oracle():
    a = MatFq.from_rows(F2, [[1, 1]])
    assert kernel(a).tolist() == [[1, 1]]
    rng = random.Random(1)
    for _ in range(40):
        F = rng.choice([F2, F3])
        rows, cols = rng.randrange(1, 3), rng.randrange(1, 4)
        a = MatFq(F, rows, cols, [rng.randrange(F.q) for _ in range(rows * cols)])
        ker = kernel(a)
        members = {
            v
            for v in all_vectors(F, cols)
            if all(
                _dot(F, a.row(i), v) == 0 for i in range(rows)
            )
        }
        spanned = {v for v in all_vectors(F, cols) if in_rowspace(F, ker.tolist(), v)}
        assert members == spanned


def _dot(F, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def test_inverse_one_by_one():
    assert inverse(MatFq.from_rows(F3, [[2]])).tolist() == [[2]]


def test_inverse_random():
    rng = random.Random(2)
    for _ in range(30):
        F = rng.choice([F2, F3, F4])
        n = rng.randrange(1, 4)
        m = _random_invertible(rng, F, n)
        assert m @ inverse(m) == MatFq.identity(F, n)


def test_singular_raises():
    with pytest.raises(ValueError):
        inverse(MatFq.from_rows(F2, [[1, 1], [1, 1]]))
    with pytest.raises(ShapeMismatch):
        inverse(MatFq.from_rows(F2, [[1, 1]]))


def test_perp_self_orthogonal_line():
    # over F_2, (1,1)·(1,1) = 0: the line is its own complement
    assert kernel(MatFq.from_rows(F2, [[1, 1]])).tolist() == [[1, 1]]


def test_perp_of_empty_is_everything():
    p = kernel(MatFq.from_rows(F3, [], cols=2))
    assert p == MatFq.identity(F3, 2)


def test_perp_brute_force_and_involution():
    rng = random.Random(3)
    for _ in range(40):
        F = rng.choice([F2, F3])
        rows, cols = rng.randrange(3), rng.randrange(1, 4)
        b = MatFq(F, rows, cols, [rng.randrange(F.q) for _ in range(rows * cols)])
        perp = kernel(b)
        red, rank = b.rref()
        assert perp.rows == cols - rank
        for v in all_vectors(F, cols):
            orthogonal = all(_dot(F, b.row(i), v) == 0 for i in range(rows))
            assert orthogonal == in_rowspace(F, perp.tolist(), v)
        assert kernel(perp) == red


def test_enumerate_f2_squared():
    subs = list(enumerate_subspaces(F2, 2))
    assert len(subs) == 5
    assert [m.rows for m in subs] == [0, 1, 1, 1, 2]
    lines = list(enumerate_subspaces(F2, 2, 1))
    assert len(lines) == 3


def test_enumerate_trivial_ambient():
    subs = list(enumerate_subspaces(F3, 0))
    assert len(subs) == 1 and subs[0].rows == 0


def test_enumeration_matches_binomials():
    for F in (F2, F3, F4):
        for r in range(4):
            subs = list(enumerate_subspaces(F, r))
            assert len(subs) == subspace_count(F, r)
            assert len(set(subs)) == len(subs)
            for d in range(r + 1):
                count = sum(1 for m in subs if m.rows == d)
                assert count == gaussian_binomial(F, r, d)


def test_enumeration_unique_and_canonical():
    # every enumerated basis is its own rref; distinct bases are distinct spaces.
    # Relations wrap these bases without reducing them again.
    for F in (F2, F3, F4, Fq(5)):
        for m in enumerate_subspaces(F, 3):
            assert m.rref()[0] == m


def test_enumeration_deterministic():
    first = [m.entries for m in enumerate_subspaces(F2, 3)]
    second = [m.entries for m in enumerate_subspaces(F2, 3)]
    assert first == second


def test_gaussian_binomial_values():
    assert gaussian_binomial(F2, 2, 1) == 3
    assert gaussian_binomial(F2, 4, 0) == 1
    # oracle: (3^3 - 1)/(3 - 1) = 13 lines in F_3^3, matches enumeration
    assert gaussian_binomial(F3, 3, 1) == 13
    assert len(list(enumerate_subspaces(F3, 3, 1))) == 13


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        list(enumerate_subspaces(F3, 19))


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        MatFq(F2, 2, 2, [1, 0, 1])
    with pytest.raises(ShapeMismatch):
        MatFq.from_rows(F2, [[1, 0], [1]])
