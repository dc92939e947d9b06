"""Exact dense matrices over F_q.

All row reduction goes through one loop, ``row_reduce``, which brings a
list of rows to reduced row-echelon form and reports the pivot columns;
``MatFq.rref`` and the relation composition in ``relations`` call it.  It
works a whole row at a time through the field's row kernels
(``Fq.scale_row``, ``Fq.sub_multiple``), which choose the arithmetic path
once per row.  ``MatFq.matmul`` builds each product row as a sum of scaled
rows of the right factor with the same kernels.  ``null_rows`` reads a
null-space basis off rows that are already reduced, with no elimination,
for the relation complement.  On top of these: rank and deterministic
subspace enumeration.  A subspace is always represented by its unique
reduced row-echelon basis with zero rows dropped; two equal row spaces
therefore have structurally equal representations.

Matrices are immutable: entries are stored row-major in a tuple of
element codes.  Vectors are rows throughout.  The public constructors
reduce every entry to a valid code; ``MatFq._trusted`` wraps entries that
already are valid codes, for results computed inside the library.
"""

from __future__ import annotations

from itertools import chain, combinations

from .errors import FieldMismatch, ShapeMismatch, TooLarge
from .field import COUNT_DIGITS, Fq

ENUMERATION_GUARD = 2**20


class MatFq:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Fq, rows: int, cols: int, entries):
        entries = tuple(field.check(x) for x in entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _trusted(cls, field: Fq, rows: int, cols: int, entries: tuple) -> "MatFq":
        """Wrap a tuple of valid element codes without checking or copying it."""
        m = object.__new__(cls)
        m.field, m.rows, m.cols, m.entries = field, rows, cols, entries
        return m

    @classmethod
    def _trusted_rows(cls, field: Fq, rows, cols: int) -> "MatFq":
        """Wrap rows of valid element codes, e.g. the output of ``row_reduce``."""
        return cls._trusted(field, len(rows), cols, tuple(chain.from_iterable(rows)))

    @classmethod
    def from_rows(cls, field: Fq, row_list, cols: int | None = None) -> "MatFq":
        row_list = [list(r) for r in row_list]
        if cols is None:
            if not row_list:
                raise ShapeMismatch("cols required for a matrix with no rows")
            cols = len(row_list[0])
        for r in row_list:
            if len(r) != cols:
                raise ShapeMismatch("ragged rows")
        flat = [x for r in row_list for x in r]
        return cls(field, len(row_list), cols, flat)

    @classmethod
    def identity(cls, field: Fq, n: int) -> "MatFq":
        return cls._trusted(field, n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, field: Fq, rows: int, cols: int) -> "MatFq":
        return cls._trusted(field, rows, cols, (0,) * (rows * cols))

    def __getitem__(self, rc) -> int:
        i, j = rc
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def tolist(self) -> list[list[int]]:
        ent, cols = self.entries, self.cols
        return [list(ent[i * cols : (i + 1) * cols]) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, MatFq)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"MatFq({self.field}, {self.rows}x{self.cols}, {self.tolist()})"

    def to_json(self) -> dict:
        return {
            "q": str(self.field),
            "rows": self.rows,
            "cols": self.cols,
            "entries": list(self.entries),
        }

    # -- block surgery --------------------------------------------------

    def vstack(self, other: "MatFq") -> "MatFq":
        if self.field != other.field:
            raise FieldMismatch("vstack over different fields")
        if self.cols != other.cols:
            raise ShapeMismatch("vstack with different column counts")
        return MatFq._trusted(
            self.field, self.rows + other.rows, self.cols, self.entries + other.entries
        )

    def hstack(self, other: "MatFq") -> "MatFq":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack with different row counts")
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return MatFq._trusted(self.field, self.rows, self.cols + other.cols, tuple(ent))

    def take_cols(self, idx) -> "MatFq":
        idx = list(idx)
        ent = tuple(self[i, j] for i in range(self.rows) for j in idx)
        return MatFq._trusted(self.field, self.rows, len(idx), ent)

    def neg(self) -> "MatFq":
        F = self.field
        return MatFq._trusted(F, self.rows, self.cols, tuple(F.scale_row(F.neg(1), self.entries)))

    # -- linear algebra --------------------------------------------------

    def matmul(self, other: "MatFq") -> "MatFq":
        if self.field != other.field:
            raise FieldMismatch("matmul over different fields")
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        F = self.field
        # row i of the product is the sum of x * (row k of other) over the
        # entries x = self[i, k]; acc + x * row is sub_multiple(acc, -x, row)
        other_rows = other.tolist()
        ent = []
        for ri in self.tolist():
            acc = [0] * other.cols
            for x, row in zip(ri, other_rows):
                if x:
                    acc = F.sub_multiple(acc, F.neg(x), row)
            ent.extend(acc)
        return MatFq._trusted(F, self.rows, other.cols, tuple(ent))

    def __matmul__(self, other):
        return self.matmul(other)

    def rref(self) -> tuple["MatFq", int]:
        """Reduced row echelon form with zero rows dropped, plus the rank."""
        red, _ = row_reduce(self.field, self.tolist(), self.cols)
        return MatFq._trusted_rows(self.field, red, self.cols), len(red)

    def rank(self) -> int:
        return self.rref()[1]

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def row_reduce(field: Fq, rows: list[list[int]], cols: int):
    """Bring ``rows`` (lists of element codes, reduced in place) to RREF.

    Returns (rows, pivots): the nonzero rows of the reduced row-echelon
    form in order and the pivot column of each.  This is the library's
    only elimination loop.
    """
    scale_row, sub_multiple = field.scale_row, field.sub_multiple
    pivots = []
    n = len(rows)
    r = 0
    for c in range(cols):
        if r == n:
            break
        for pivot in range(r, n):
            if rows[pivot][c]:
                break
        else:
            continue
        head = rows[pivot]
        rows[pivot] = rows[r]
        lead = head[c]
        if lead != 1:
            head = scale_row(field.inv(lead), head)
        rows[r] = head
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = sub_multiple(row, f, head)
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def null_rows(field: Fq, rows, cols: int) -> list[list[int]]:
    """A basis of the null space of RREF ``rows``, one vector per free column.

    The vector for free column f has a 1 at f, the negated entry
    -rows[i][f] at the pivot column of row i (its first nonzero entry), and
    0 elsewhere.  No elimination runs, so the vectors are not in RREF.
    """
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    pivot_set = set(pivots)
    out = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [0] * cols
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            if row[fc]:
                vec[pc] = field.neg(row[fc])
        out.append(vec)
    return out


def gaussian_binomial(field: Fq, r: int, d: int) -> int:
    """Number of d-dimensional subspaces of F_q^r, as an exact integer."""
    if d < 0 or d > r:
        return 0
    q = field.q
    out = 1
    for i in range(min(d, r - d)):
        # out is the count for dimension i; times (q^(r-i) - 1) it is the
        # count for i + 1 times (q^(i+1) - 1), so the division is exact.
        # Dimensions d and r - d have the same count.
        out = out * (q ** (r - i) - 1) // (q ** (i + 1) - 1)
    return out


def subspace_count(field: Fq, r: int) -> int:
    """Number of subspaces of F_q^r; TooLarge if it has more than COUNT_DIGITS digits."""
    limit = 10**COUNT_DIGITS
    # the count for dimension m is at least q^(m(r-m)) >= 2^(m(r-m)), so a
    # large r or q is refused before any count is formed
    m = r // 2
    if m * (r - m) < limit.bit_length() and field.q ** (m * (r - m)) < limit:
        count = sum(gaussian_binomial(field, r, d) for d in range(r + 1))
        if count < limit:
            return count
    raise TooLarge(
        f"the number of subspaces of F_{field.q}^{r} has more than {COUNT_DIGITS} digits"
    )


def enumerate_subspaces(field: Fq, r: int, d: int | None = None):
    """Yield every subspace of F_q^r exactly once, as its RREF basis.

    Order: by dimension, then lexicographic pivot-column sets, then the
    free entries counted in row-major order with the first free position
    least significant.  The order is a pure function of (q, r, d), so
    serialized output is byte-stable.
    """
    dims = range(r + 1) if d is None else [d]
    count = 0
    for dim in dims:
        count += gaussian_binomial(field, r, dim)
        if count > ENUMERATION_GUARD:
            raise TooLarge(
                f"more than {ENUMERATION_GUARD} subspaces of F_{field.q}^{r} to enumerate"
            )
    for dim in dims:
        if dim < 0 or dim > r:
            continue
        for piv in combinations(range(r), dim):
            free_pos = [
                (i, c)
                for i in range(dim)
                for c in range(piv[i] + 1, r)
                if c not in piv
            ]
            for code in range(field.q ** len(free_pos)):
                ent = [0] * (dim * r)
                for i, pc in enumerate(piv):
                    ent[i * r + pc] = 1
                rest = code
                for (i, c) in free_pos:
                    ent[i * r + c] = rest % field.q
                    rest //= field.q
                yield MatFq._trusted(field, dim, r, tuple(ent))
