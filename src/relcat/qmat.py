"""Sparse exact matrices over the rationals.

Entries are Python ints or Fractions keyed by (row, col); zeros are never
stored.  The public constructor checks every entry; ``QMat._trusted``
wraps results computed here, which are nonzero and in range already.
Rank is computed fraction-free, on integer rows.

The Kronecker convention throughout the library is that the FIRST factor
is the least significant index block: kron(a, b) has entry
((ra + a.rows * rb), (ca + a.cols * cb)) = a[ra,ca] * b[rb,cb].  This
matches the tuple encoding used for tensor-power bases, where strand 1
contributes the lowest digits.
"""

from __future__ import annotations

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
                if v:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise ShapeMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
                    self.data[(r, c)] = v

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: dict) -> "QMat":
        """Wrap a dict of nonzero in-range entries without checking or copying it."""
        m = object.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMat":
        return cls(rows, cols)

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.data.items():
            out[r][c] = v
        return out

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

    def entries_sorted(self):
        return sorted(self.data.items())

    def transpose(self) -> "QMat":
        return QMat._trusted(self.cols, self.rows, {(c, r): v for (r, c), v in self.data.items()})

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
        if not c:
            return QMat.zero(self.rows, self.cols)
        return QMat._trusted(self.rows, self.cols, {k: c * v for k, v in self.data.items()})

    def matmul(self, other: "QMat") -> "QMat":
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        by_row: dict[int, list[tuple[int, object]]] = {}
        for (r, c), v in self.data.items():
            by_row.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], object] = {}
        by_mid: dict[int, list[tuple[int, object]]] = {}
        for (m, c), v in other.data.items():
            by_mid.setdefault(m, []).append((c, v))
        for r, left in by_row.items():
            acc: dict[int, object] = {}
            for m, lv in left:
                for c, rv in by_mid.get(m, ()):
                    acc[c] = acc.get(c, 0) + lv * rv
            for c, v in acc.items():
                if v:
                    out[(r, c)] = v
        return QMat._trusted(self.rows, other.cols, out)

    def __matmul__(self, other):
        return self.matmul(other)

    def kron(self, other: "QMat") -> "QMat":
        """Kronecker product, self as the least significant block."""
        data = {}
        for (r1, c1), v1 in self.data.items():
            for (r2, c2), v2 in other.data.items():
                data[(r1 + self.rows * r2, c1 + self.cols * c2)] = v1 * v2
        return QMat._trusted(self.rows * other.rows, self.cols * other.cols, data)

    def rank(self) -> int:
        """Rank over Q, by fraction-free elimination on integer rows.

        Each row is scaled by the lcm of its denominators; a row meeting a
        pivot on its leading column is cross-multiplied with the pivot row
        to cancel it, then divided by the gcd of its entries.
        """
        rows: dict[int, dict] = {}
        for (r, c), v in self.data.items():
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
