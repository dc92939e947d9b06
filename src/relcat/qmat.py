"""Sparse exact matrices over the rationals.

Entries are Python ints or Fractions in one dict keyed by the row-major
flat index r * cols + c of cell (r, c); zeros are never stored.  This
module is the only one that encodes or decodes those keys: other modules
read cells through ``get``, ``entries_sorted``, ``columns``, ``vec`` and
``first_difference``.  The public constructor takes entries
keyed by (row, col) and checks every one: its position, and that it is an
int or a Fraction.  ``QMat._trusted`` wraps flat entries computed here,
which are exact, nonzero and in range already, and ``_trusted_rows`` and
``_trusted_columns`` build from row or column dicts that are.  Rank is
computed fraction-free, on integer rows.

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
    def _trusted_columns(cls, rows: int, cols: int, columns) -> "QMat":
        """The matrix whose column c is the c-th {row: nonzero value} dict of ``columns``."""
        data = {}
        for c, col in enumerate(columns):
            for r, v in col.items():
                data[r * cols + c] = v
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
        """((row, col), value) for each nonzero entry, in row-major order."""
        cols = self.cols
        return [(divmod(k, cols), v) for k, v in sorted(self.data.items())]

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
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        mid, width = self.cols, other.cols
        by_mid: dict[int, list[tuple[int, object]]] = {}
        for k, v in other.data.items():
            m, c = divmod(k, width)
            by_mid.setdefault(m, []).append((c, v))
        out: dict[int, object] = {}
        get = out.get
        for k, lv in self.data.items():
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


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g <= 1 else {c: v // g for c, v in row.items()}
