"""Sparse exact rational matrices."""

import random
import sys
from fractions import Fraction

import pytest

from helpers import nonzero_cells, to_dense, transpose

import relcat.concrete as concrete
import relcat.qmat as qmat
import relcat.suites as suites
from relcat.errors import ShapeMismatch
from relcat.field import Fq
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
        assert transpose(_qmat(dense)).rank() == expected
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
    assert nonzero_cells(a.add(a.scale(-1))) == {}
    assert a.scale(0) == QMat.zero(2, 2)
    b = QMat(2, 2, {(0, 0): 1, (1, 0): 2})
    assert nonzero_cells(a @ b) == {(0, 0): 2, (1, 0): -2}
    # a product whose terms cancel stores no zero
    row, col = QMat(1, 2, {(0, 0): 1, (0, 1): -1}), QMat(2, 1, {(0, 0): 5, (1, 0): 5})
    assert (row @ col).nnz() == 0 and row @ col == QMat.zero(1, 1)
    assert a.kron(b).nnz() == a.nnz() * b.nnz()
    assert transpose(transpose(a)) == a


def test_public_constructor_checks_entries():
    assert nonzero_cells(QMat(2, 2, {(0, 0): 0, (1, 1): 3})) == {(1, 1): 3}
    with pytest.raises(ShapeMismatch):
        QMat(2, 2, {(2, 0): 1})
    for inexact in (0.5, 1.0, "1", None):
        with pytest.raises(TypeError):
            QMat(2, 2, {(0, 0): inexact, (1, 1): 1})
    assert nonzero_cells(QMat(1, 2, {(0, 0): Fraction(1, 2), (0, 1): -7})) == {
        (0, 0): Fraction(1, 2), (0, 1): -7}


# -- every operation against a dense list-of-lists reference -----------------


def _entry(rng):
    """0, a small signed int, a Fraction, or an int or Fraction past 64 bits."""
    kind = rng.randrange(6)
    if kind < 2:
        return 0
    if kind == 2:
        return rng.randrange(-9, 10)
    if kind == 3:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    big = rng.choice((-1, 1)) * rng.randrange(2**64, 2**90)
    return big if kind == 4 else Fraction(big, rng.randrange(2**63, 2**70))


def _dense(rng, rows: int, cols: int):
    return [[_entry(rng) for _ in range(cols)] for _ in range(rows)]


def _from_dense(dense, cols: int) -> QMat:
    return QMat(len(dense), cols, {
        (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)
    })


def _dense_matmul(a, b, mid: int, cols: int):
    return [[sum((row[m] * b[m][c] for m in range(mid)), 0) for c in range(cols)] for row in a]


def _dense_kron(a, b, shape_a, shape_b):
    (ra, ca), (rb, cb) = shape_a, shape_b
    out = [[0] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    out[i + ra * k][j + ca * m] = a[i][j] * b[k][m]
    return out


def _dense_entries(dense):
    return [((i, j), v) for i, row in enumerate(dense) for j, v in enumerate(row) if v]


def _shape(rng):
    # 0-row and 0-column shapes come up often
    return rng.choice((0, 1, 1, 2, 3, 4, 5))


def _check(mat: QMat, dense, cols: int):
    assert (mat.rows, mat.cols) == (len(dense), cols)
    assert mat.entries_sorted() == [(i, j, v) for (i, j), v in _dense_entries(dense)]
    assert nonzero_cells(mat) == dict(_dense_entries(dense))
    assert to_dense(mat) == dense
    assert all(mat.get(i, j) == v for i, row in enumerate(dense) for j, v in enumerate(row))
    assert mat == _from_dense(dense, cols)


def test_every_operation_matches_dense_reference():
    rng = random.Random(51)
    shapes = set()
    for _ in range(400):
        r, m, c, r2, c2 = (_shape(rng) for _ in range(5))
        shapes.add((r, m, c))
        a, b, a2 = _dense(rng, r, m), _dense(rng, m, c), _dense(rng, r, m)
        qa, qb, qa2 = _from_dense(a, m), _from_dense(b, c), _from_dense(a2, m)
        _check(qa, a, m)
        _check(qa @ qb, _dense_matmul(a, b, m, c), c)
        _check(qa.add(qa2), [[x + y for x, y in zip(u, v)] for u, v in zip(a, a2)], m)
        _check(qa.add(qa.scale(-1)), [[0] * m for _ in range(r)], m)
        k = _entry(rng)
        _check(qa.scale(k), [[k * x for x in row] for row in a], m)
        _check(transpose(qa), [[a[i][j] for i in range(r)] for j in range(m)], r)
        d = _dense(rng, r2, c2)
        _check(qa.kron(_from_dense(d, c2)), _dense_kron(a, d, (r, m), (r2, c2)), m * c2)
        assert qa.rank() == _fraction_rank([row[:] for row in a])
        assert (qa == qa2) == (a == a2)
        columns = qa.columns()
        assert columns == [{i: a[i][j] for i in range(r) if a[i][j]} for j in range(m)]
        assert QMat._trusted_columns(r, m, columns.__getitem__) == qa
        rows = [{j: v for j, v in enumerate(row) if v} for row in a]
        assert QMat._trusted_rows(r, m, rows) == qa
        assert qa.vec() == {i * m + j: v for (i, j), v in _dense_entries(a)}
        cell = next((((i, j) for i in range(r) for j in range(m) if a[i][j] != a2[i][j])), None)
        assert qa.first_difference(qa2) == cell
    # each of the three dimensions was 0 while the other two were not
    for pos in range(3):
        assert any(shape[pos] == 0 and shape.count(0) == 1 for shape in shapes), pos
    # 0/1 operands, most of them dense enough for the bitmask product; the
    # same operands with Fraction(1) entries, or one entry of 2, stay on the
    # sparse loop and keep its Fraction results
    bitmask = 0
    for _ in range(150):
        r, m, c = rng.randrange(1, 14), rng.randrange(1, 14), rng.randrange(1, 14)
        density = rng.choice((0.3, 0.8, 1.0))
        a = [[int(rng.random() < density) for _ in range(m)] for _ in range(r)]
        b = [[int(rng.random() < density) for _ in range(c)] for _ in range(m)]
        product = _dense_matmul(a, b, m, c)
        bitmask += _nnz(a) * _nnz(b) > qmat.DENSE_PRODUCT * m
        _check(_from_dense(a, m) @ _from_dense(b, c), product, c)
        ones = [[Fraction(x) for x in row] for row in a]
        got = _from_dense(ones, m) @ _from_dense(b, c)
        _check(got, product, c)
        assert all(type(v) is Fraction for v in got.vec().values())
        a[rng.randrange(r)][rng.randrange(m)] = 2
        _check(_from_dense(a, m) @ _from_dense(b, c), _dense_matmul(a, b, m, c), c)
    assert 30 < bitmask < 150, bitmask


def _nnz(dense) -> int:
    return sum(map(bool, sum(dense, [])))


def _c_calls(run) -> set:
    """The names of the builtins that run() calls."""
    names = set()

    def profile(frame, event, arg):
        if event == "c_call":
            names.add(arg.__name__)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return names


def test_dense_0_1_products_take_the_bitmask_path():
    ones = QMat(8, 8, {(i, j): 1 for i in range(8) for j in range(8)})
    assert ones.nnz() ** 2 > qmat.DENSE_PRODUCT * 8
    assert "bit_count" in _c_calls(lambda: ones @ ones)
    assert ones @ ones == ones.scale(8)
    # a Fraction(1) factor, an entry of 2 and a sparse 0/1 product stay sparse
    fractions = QMat(8, 8, {(i, j): Fraction(1) for i in range(8) for j in range(8)})
    two = ones.add(QMat(8, 8, {(0, 0): 1}))
    diagonal = QMat.identity(8)
    for left, right in ((ones, fractions), (fractions, ones), (two, ones), (diagonal, ones)):
        assert "bit_count" not in _c_calls(lambda: left @ right)


def test_byte_row_products_match_the_dense_reference():
    # inner dimensions past 255, so that a cell counts more bytes than one
    # byte holds, and inner dimensions that are not multiples of 8; row 0 and
    # inner index mid - 1 of A are empty, and so are inner index 0 and the
    # last column of B; shapes are rectangular
    rng = random.Random(52)
    cases = [(2, 300, 3), (3, 257, 2), (1, 256, 1)]
    cases += [(rng.randrange(1, 12), mid, rng.randrange(1, 12)) for mid in (3, 7, 13, 21, 29)]
    byte_rows = 0
    for rows, mid, width in cases:
        a = [[0] * mid] + [[int(rng.random() < 0.9) for _ in range(mid)] for _ in range(rows)]
        b = [[0] * (width + 1)] + [
            [int(rng.random() < 0.9) for _ in range(width)] + [0] for _ in range(mid - 1)
        ]
        for row in a:
            row[-1] = 0
        qa, qb = _from_dense(a, mid), _from_dense(b, width + 1)
        fits = (rows + 1 + width + 1) * mid <= qmat.DENSE_PRODUCT * (qa.nnz() + qb.nnz())
        dense = qa.nnz() * qb.nnz() > qmat.DENSE_PRODUCT * mid and fits
        byte_rows += dense
        assert ("from_bytes" in _c_calls(lambda: qa @ qb)) == dense, (rows, mid, width)
        got = qa @ qb
        _check(got, _dense_matmul(a, b, mid, width + 1), width + 1)
        assert all(type(v) is int for v in got.vec().values())
    assert byte_rows >= len(cases) - 2, byte_rows
    big = _from_dense([[1] * 300] * 2, 300) @ _from_dense([[1] * 3] * 300, 3)
    assert nonzero_cells(big) == {(i, j): 300 for i in range(2) for j in range(3)}


def test_a_dense_rule_product_with_large_buffers_stays_sparse():
    # 65 ones in column 0 of a tall A, times [[1]]: nnz(A) * nnz(B) = 65
    # passes DENSE_PRODUCT * mid = 64, so only the buffer bound, rows + 1
    # bytes against DENSE_PRODUCT * 66, decides the path
    limit = qmat.DENSE_PRODUCT * 66
    one = QMat.identity(1)
    for rows, byte_rows in ((limit - 1, True), (limit, False), (10**5, False)):
        tall = QMat(rows, 1, {(i, 0): 1 for i in range(65)})
        assert ("from_bytes" in _c_calls(lambda: tall @ one)) == byte_rows, rows
        assert tall @ one == tall


def test_kron_of_0_1_factors_stores_int_ones():
    rng = random.Random(53)
    for _ in range(20):
        shape_a = rng.randrange(1, 5), rng.randrange(1, 5)
        shape_b = rng.randrange(1, 5), rng.randrange(1, 5)
        a = [[int(rng.random() < 0.6) for _ in range(shape_a[1])] for _ in range(shape_a[0])]
        b = [[int(rng.random() < 0.6) for _ in range(shape_b[1])] for _ in range(shape_b[0])]
        a[0][0] = b[-1][-1] = 1
        qa, qb = _from_dense(a, shape_a[1]), _from_dense(b, shape_b[1])
        cols = shape_a[1] * shape_b[1]
        got = qa.kron(qb)
        _check(got, _dense_kron(a, b, shape_a, shape_b), cols)
        assert all(type(v) is int and v == 1 for v in got.vec().values())
        # a Fraction(1) factor keeps Fraction products, and an entry of 2 its 2
        fractions = QMat(*shape_a, dict.fromkeys(nonzero_cells(qa), Fraction(1)))
        for product in (fractions.kron(qb), qb.kron(fractions)):
            assert product.nnz() == got.nnz()
            assert all(type(v) is Fraction and v == 1 for v in product.vec().values())
        b[-1][-1] = 2
        _check(qa.kron(_from_dense(b, shape_b[1])), _dense_kron(a, b, shape_a, shape_b), cols)


def test_scale_by_one_is_the_matrix_itself():
    a = QMat(2, 2, {(0, 0): 1, (0, 1): Fraction(1, 2), (1, 1): -1})
    assert a.scale(1) is a and a.scale(Fraction(1)) is a
    assert a.scale(-1) is not a and a.scale(-1).scale(-1) == a


def test_equality_sees_shape():
    assert QMat.zero(2, 3) != QMat.zero(3, 2)
    assert QMat.zero(0, 4) != QMat.zero(4, 0)
    assert QMat.identity(0) == QMat.zero(0, 0)
    with pytest.raises(ShapeMismatch):
        QMat.zero(2, 3).first_difference(QMat.zero(3, 2))


# -- the functor suite builds each f_R once ------------------------------------


def test_functor_suite_builds_each_f_r_once(monkeypatch):
    build = concrete.f_r_matrix
    built = []

    def counting(rel, n):
        built.append((rel, n))
        return build(rel, n)

    for q, n in ((2, 1), (2, 2), (3, 1)):
        expected = [res.line() for res in suites.suite_functor(Fq(q), n, 30, 4)]
        built.clear()
        monkeypatch.setattr(concrete, "f_r_matrix", counting)
        got = [res.line() for res in suites.suite_functor(Fq(q), n, 30, 4)]
        monkeypatch.undo()
        assert got == expected and all(line.startswith("PASS ") for line in got)
        # each trial reads five matrices, so most of them repeat across trials
        assert len(built) == len(set(built)) < 5 * 60, (q, n)
