"""Sparse exact rational matrices."""

import random
from fractions import Fraction

import pytest

from relcat.errors import ShapeMismatch
from relcat.qmat import QMat


def _fraction_rank(dense) -> int:
    """Rank by textbook Gaussian elimination over Fractions."""
    rows = [[Fraction(v) for v in row] for row in dense]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _random_dense(rng, rows: int, cols: int, rational: bool):
    def entry():
        if rng.random() < 0.4:
            return 0
        num = rng.randrange(-9, 10)
        return Fraction(num, rng.randrange(1, 7)) if rational else num

    dense = [[entry() for _ in range(cols)] for _ in range(rows)]
    # make some rows combinations of others, so the rank drops
    for i in range(rows):
        if i >= 2 and rng.random() < 0.4:
            a, b = rng.sample(range(i), 2)
            ca, cb = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)), rng.randrange(-2, 3)
            if not rational:
                ca = ca.numerator
            dense[i] = [ca * x + cb * y for x, y in zip(dense[a], dense[b])]
    return dense


def _qmat(dense) -> QMat:
    return QMat(len(dense), len(dense[0]), {
        (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)
    })


def test_rank_matches_fraction_reference():
    rng = random.Random(50)
    deficient = 0
    for trial in range(300):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        dense = _random_dense(rng, rows, cols, rational=trial % 2 == 1)
        expected = _fraction_rank(dense)
        deficient += expected < min(rows, cols)
        assert _qmat(dense).rank() == expected, dense
        assert _qmat(dense).transpose().rank() == expected
    assert deficient > 50


def test_rank_examples():
    assert QMat.zero(3, 4).rank() == 0
    assert QMat.identity(5).rank() == 5
    assert QMat(2, 2, {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 2),
                       (1, 0): 2, (1, 1): 3}).rank() == 1
    # large entries stay exact
    big = 10**40
    assert QMat(2, 2, {(0, 0): big, (0, 1): big + 1, (1, 0): big - 1, (1, 1): big}).rank() == 2


def test_arithmetic_keeps_entries_nonzero():
    a = QMat(2, 2, {(0, 0): 1, (0, 1): Fraction(1, 2), (1, 1): -1})
    assert a.add(a.scale(-1)).data == {}
    assert a.scale(0) == QMat.zero(2, 2)
    b = QMat(2, 2, {(0, 0): 1, (1, 0): 2})
    assert (a @ b).data == {(0, 0): 2, (1, 0): -2}
    assert a.kron(b).nnz() == a.nnz() * b.nnz()
    assert a.transpose().transpose() == a


def test_public_constructor_checks_entries():
    assert QMat(2, 2, {(0, 0): 0, (1, 1): 3}).data == {(1, 1): 3}
    with pytest.raises(ShapeMismatch):
        QMat(2, 2, {(2, 0): 1})
