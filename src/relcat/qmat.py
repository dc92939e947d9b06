"""Sparse exact matrices over the rationals.

Entries are Python ints or Fractions in one dict keyed by the row-major
flat index r * cols + c of cell (r, c); zeros are never stored.  This
module is the only one that encodes or decodes those keys: other modules
read cells through ``get``, ``entries_sorted``, ``columns``, ``vec`` and
``first_difference``.  The public constructor takes entries
keyed by (row, col) and checks every one: its position, and that it is an
int or a Fraction.  ``QMat._trusted`` wraps flat entries computed here,
which are exact, nonzero and in range already, and ``_trusted_rows`` and
``_trusted_columns`` build from row or column dicts that are, the latter
from a list or a column function.  Rank is computed fraction-free, on
integer rows.

A product has two paths.  The sparse loop groups the right factor's cells
by row and adds each left cell's products into the result.  When both
factors hold only the int 1, as the functor's f_R matrices do, and
nnz(A) * nnz(B) passes ``DENSE_PRODUCT`` times the inner dimension, each
row of A and each column of B becomes one int bitmask over the inner
index, and cell (r, c) is the bit count of their AND.  A Fraction(1)
entry keeps the sparse loop, so its results stay Fractions.

The Kronecker convention throughout the library is that the FIRST factor
is the least significant index block: kron(a, b) has entry
((ra + a.rows * rb), (ca + a.cols * cb)) = a[ra,ca] * b[rb,cb].  This
matches the tuple encoding used for tensor-power bases, where strand 1
contributes the lowest digits.  In flat indices, with C = a.cols * b.cols
the columns of the product, that cell is (ra * C + ca) + (a.rows * C * rb
+ a.cols * cb): a sum of one offset from each factor's cell.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ShapeMismatch

# A product of two 0/1 matrices runs on bitmasks once nnz(A) * nnz(B) passes
# this many times the inner dimension: for evenly spread cells the sparse
# loop then makes more than this many multiply-adds.  On the functor suite's
# 0/1 products the bitmask form was 1.4x slower below 64, even from 64 to
# 4096, and 5.8x faster past 4096 (2-vCPU x86-64 VM, Python 3.11).
DENSE_PRODUCT = 64


class QMat:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        self.data = {}
        if data:
            for (r, c), v in dict(data).items():
                if not isinstance(v, (int, Fraction)):
                    raise TypeError(f"expected an exact rational, got {type(v).__name__}")
                if v:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise ShapeMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
                    self.data[r * cols + c] = v

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: dict) -> "QMat":
        """Wrap a dict of nonzero in-range entries keyed by flat index, without copying it."""
        m = object.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def _trusted_rows(cls, rows: int, cols: int, row_dicts) -> "QMat":
        """The matrix whose row r is the r-th {col: nonzero value} dict of ``row_dicts``."""
        data = {}
        for r, row in enumerate(row_dicts):
            base = r * cols
            for c, v in row.items():
                data[base + c] = v
        return cls._trusted(rows, cols, data)

    @classmethod
    def _trusted_columns(cls, rows: int, cols: int, column) -> "QMat":
        """The matrix whose column c is the {row: nonzero value} dict ``column(c)``,
        or ``column[c]`` when ``column`` is a list."""
        if isinstance(column, list):
            column = column.__getitem__
        data = {r * cols + c: v for c in range(cols) for r, v in column(c).items()}
        return cls._trusted(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls._trusted(n, n, dict.fromkeys(range(0, n * n, n + 1), 1))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMat":
        return cls._trusted(rows, cols, {})

    def get(self, row: int, col: int):
        """The entry in cell (row, col); 0 when none is stored."""
        return self.data.get(row * self.cols + col, 0)

    def entries_sorted(self):
        """(row, col, value) for each nonzero entry, in row-major order."""
        cols, data = self.cols, self.data
        return [(*divmod(k, cols), data[k]) for k in sorted(data)]

    def columns(self) -> list:
        """One {row: value} dict per column, holding its nonzero entries."""
        cols = self.cols
        out = [{} for _ in range(cols)]
        for k, v in self.data.items():
            r, c = divmod(k, cols)
            out[c][r] = v
        return out

    def vec(self) -> dict:
        """The row-major vectorization: {r * cols + c: value}.  Do not mutate it."""
        return self.data

    def __eq__(self, other):
        return (
            isinstance(other, QMat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __repr__(self):
        return f"QMat({self.rows}x{self.cols}, nnz={len(self.data)})"

    def nnz(self) -> int:
        return len(self.data)

    def first_difference(self, other: "QMat"):
        """The first (row, col) in row-major order where the two differ, or None."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("cells of different shapes")
        a, b = self.data, other.data
        if a == b:
            return None
        key = next(k for k in sorted(a.keys() | b.keys()) if a.get(k, 0) != b.get(k, 0))
        return divmod(key, self.cols)

    def add(self, other: "QMat") -> "QMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("sum of different shapes")
        data = dict(self.data)
        for key, v in other.data.items():
            w = data.get(key, 0) + v
            if w:
                data[key] = w
            else:
                data.pop(key, None)
        return QMat._trusted(self.rows, self.cols, data)

    def scale(self, c) -> "QMat":
        """c times the matrix; the matrix itself when c = 1, as a QMat is immutable."""
        if c == 1:
            return self
        if not c:
            return QMat.zero(self.rows, self.cols)
        return QMat._trusted(self.rows, self.cols, {k: c * v for k, v in self.data.items()})

    def matmul(self, other: "QMat") -> "QMat":
        """The product, by the sparse loop; dense 0/1 factors by bit counts.

        When both factors hold only the int 1 and nnz(A) * nnz(B) passes
        DENSE_PRODUCT * mid, cell (r, c) is the bit count of row r's mask of
        A ANDed with column c's mask of B, for each nonempty row and column.
        """
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        mid, width = self.cols, other.cols
        a, b = self.data, other.data
        if len(a) * len(b) > DENSE_PRODUCT * mid and _ones(a) and _ones(b):
            row_masks: dict[int, int] = {}
            for k in a:
                r, m = divmod(k, mid)
                row_masks[r] = row_masks.get(r, 0) | 1 << m
            col_masks: dict[int, int] = {}
            for k in b:
                m, c = divmod(k, width)
                col_masks[c] = col_masks.get(c, 0) | 1 << m
            cols = list(col_masks.items())
            out = {
                r * width + c: v
                for r, rm in row_masks.items()
                for c, cm in cols
                if (v := (rm & cm).bit_count())
            }
            return QMat._trusted(self.rows, width, out)
        by_mid: dict[int, list[tuple[int, object]]] = {}
        for k, v in b.items():
            m, c = divmod(k, width)
            by_mid.setdefault(m, []).append((c, v))
        out: dict[int, object] = {}
        get = out.get
        for k, lv in a.items():
            r, m = divmod(k, mid)
            base = r * width
            for c, rv in by_mid.get(m, ()):
                key = base + c
                out[key] = get(key, 0) + lv * rv
        if not all(out.values()):
            out = {k: v for k, v in out.items() if v}
        return QMat._trusted(self.rows, width, out)

    def __matmul__(self, other):
        return self.matmul(other)

    def kron(self, other: "QMat") -> "QMat":
        """Kronecker product, self as the least significant block."""
        c1, c2 = self.cols, other.cols
        width = c1 * c2
        big = self.rows * width
        mine = []
        for k, v in self.data.items():
            r, c = divmod(k, c1)
            mine.append((r * width + c, v))
        theirs = []
        for k, v in other.data.items():
            r, c = divmod(k, c2)
            theirs.append((r * big + c * c1, v))
        data = {x + y: u * w for y, w in theirs for x, u in mine}
        return QMat._trusted(self.rows * other.rows, width, data)

    def rank(self) -> int:
        """Rank over Q, by fraction-free elimination on integer rows.

        Each row is scaled by the lcm of its denominators; a row meeting a
        pivot on its leading column is cross-multiplied with the pivot row
        to cancel it, then divided by the gcd of its entries.
        """
        cols = self.cols
        rows: dict[int, dict] = {}
        for k, v in self.data.items():
            r, c = divmod(k, cols)
            rows.setdefault(r, {})[c] = v
        pivots: dict[int, dict[int, int]] = {}
        for row in rows.values():
            den = lcm(*(v.denominator for v in row.values()))
            row = _primitive({c: v.numerator * (den // v.denominator) for c, v in row.items()})
            while row:
                lead = min(row)
                piv = pivots.get(lead)
                if piv is None:
                    pivots[lead] = row
                    break
                g = gcd(piv[lead], row[lead])
                a, b = piv[lead] // g, row[lead] // g
                row = {c: a * v for c, v in row.items()}
                for c, v in piv.items():
                    w = row.get(c, 0) - b * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                row = _primitive(row)
        return len(pivots)


def _ones(data: dict) -> bool:
    """Whether every stored entry is the int 1 (a Fraction(1) is not)."""
    values = data.values()
    return set(map(type, values)) == {int} and set(values) == {1}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g <= 1 else {c: v // g for c, v in row.items()}
