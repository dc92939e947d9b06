"""The specialization functor into exact integer matrices.

For rank n, a formal arrow [s] -> [k] becomes an exact matrix acting on
tensor powers of the free complex vector space on F_q^n.  Basis tuples
are indexed by integers: a vector v in F_q^n has code sum_j v_j q^j
(little-endian over coordinates) and a tuple (v_1|...|v_s) has index
sum_i code(v_i) q^{n(i-1)}, so strand 1 is the least significant block,
matching QMat.kron.

A relation's basis rows are equations on one coordinate slot of the
(domain | codomain) tuple, and the n slots obey them independently, so
f_R at rank n is the slotwise product of the kernel points: its nonzero
cells are the sums of one kernel point per slot, q^{n·dim ker} of them,
built directly without solving for any column.  The basis is already in
RREF, so the kernel points are enumerated straight off its rows and no
elimination runs: each free column takes every value, and each pivot
column the value its row forces.  ``f_r_matrix``, ``specialize`` and
``independence_check`` count those cells before they build any and refuse
more than ``CELL_GUARD``; each guard decides its power of q from the
exponent first (``field.capped_power``), so a huge n is refused without
forming q^n.  A [0] -> [0] map is 1 x 1 at every n, and its one cell is
built without a round per slot; ``specialize`` forms t = q^n only for a
coefficient of positive degree, and refuses it by its digit count first.
``rel_infty_stability`` compares flat cells across ranks, re-weighting
each tuple index.  Only ``matrix`` and ``field`` are used, never ``star``,
``product`` or ``category``.

These matrices are the ground-truth oracle for every formal identity:
composition becomes exact matrix product scaled by q^{n·defect}, tensor
becomes the Kronecker product, and t evaluates to q^n.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ArityMismatch, NotRelInfty, TooLarge
from .field import COUNT_DIGITS, Fq, capped_power
from .matrix import enumerate_subspaces, subspace_count
from .qmat import QMat
from .relations import Relation, is_rel_infty

if TYPE_CHECKING:  # an annotation only: the functor never runs category code
    from .category import Morphism

# A map of more than q^(n max(s, k)) = SIZE_GUARD rows or columns is refused.
SIZE_GUARD = 2**22
# f_r_matrix, specialize and independence_check refuse to build more f_R
# cells than this: specialize of rel(2;9,9;[]), 2^18 cells, took 0.73-0.89 s
# in a fresh process, printing included, about 3 us a cell (2-vCPU x86-64
# VM, Python 3.11).
CELL_GUARD = 2**18


class ConcreteMap:
    """An exact matrix plus its (field, n, s, k) bookkeeping."""

    __slots__ = ("field", "n", "s", "k", "mat")

    def __init__(self, field: Fq, n: int, s: int, k: int, mat: QMat):
        if mat.rows != field.q ** (n * k) or mat.cols != field.q ** (n * s):
            raise ArityMismatch(
                f"matrix {mat.rows}x{mat.cols} does not match q^(nk) x q^(ns)"
            )
        self.field = field
        self.n = n
        self.s = s
        self.k = k
        self.mat = mat

    @classmethod
    def _trusted(cls, field: Fq, n: int, s: int, k: int, mat: QMat) -> "ConcreteMap":
        """Wrap a matrix that is q^(nk) x q^(ns) by construction, unchecked."""
        out = object.__new__(cls)
        out.field, out.n, out.s, out.k, out.mat = field, n, s, k, mat
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ConcreteMap)
            and (self.field, self.n, self.s, self.k) == (other.field, other.n, other.s, other.k)
            and self.mat == other.mat
        )

    def __repr__(self):
        return f"ConcreteMap(q={self.field}, n={self.n}, [{self.s}]->[{self.k}], nnz={self.mat.nnz()})"


def _guard(field: Fq, n: int, s: int, k: int):
    if capped_power(field.q, n * max(s, k), SIZE_GUARD) > SIZE_GUARD:
        raise TooLarge(f"q^(n*max(s,k)) exceeds {SIZE_GUARD}")


def _cells(field: Fq, n: int, rel: Relation) -> int:
    """The cells of rel's f_R at rank n, q^(n dim ker), or a number past
    CELL_GUARD if there are more."""
    return capped_power(field.q, n * (rel.s + rel.k - rel.basis.rows), CELL_GUARD)


def _too_many_cells(source: str, n: int) -> TooLarge:
    return TooLarge(f"{source}: more than {CELL_GUARD} f_R cells at n = {n}")


def _check_cells(field: Fq, n: int, rels, source: str):
    """TooLarge if the f_R of the relations at rank n have more than
    CELL_GUARD cells in all."""
    if sum(_cells(field, n, r) for r in rels) > CELL_GUARD:
        raise _too_many_cells(source, n)


def f_r_matrix(rel: Relation, n: int) -> ConcreteMap:
    """The 0/1 matrix of a basis arrow at rank n, as a slotwise product.

    The basis rows are equations on one coordinate slot of the
    (domain | codomain) tuple, and each of the n slots obeys them on its
    own.  The basis is in RREF, so the kernel points are read straight off
    its rows: the free columns take every value independently, and the
    pivot column of a row takes minus that row's combination of them.  A
    point with domain part x and codomain part y sits at slot 0 in cell
    (sum_i y_i q^{n i}, sum_i x_i q^{n i}), which is one flat ``QMat``
    index (row · cols + col), a weighted sum of the coordinates.  So each
    free column, in turn, multiplies the list of flat offsets q-fold by
    adding weight · c for c = 0..q-1, and only a pivot column keeps a list
    of values, grown by translates of its row's entries and added with
    its weight in one pass.  At slot j the cell is that one with row and
    column scaled by q^j, so its flat index is scaled by q^j too.  The
    cells are the sums of one flat offset per slot, built in n rounds of
    one list of ints each (none when the kernel is 0), so the cost is the
    q^{n dim ker} cells themselves: no column is solved and no elimination
    runs.
    """
    F, s, k = rel.field, rel.s, rel.k
    _guard(F, n, s, k)
    q, m = F.q, s + k
    if _cells(F, n, rel) > CELL_GUARD:
        raise _too_many_cells(f"f_R of a [{s}] -> [{k}] relation", n)
    # the flat offset of a point at slot 0: coordinate i weighs q^(n i), as
    # the codomain block starts at width = q^(n s); q^n is formed only for a
    # map with strands, whose size guard bounds it
    weights = [1]
    if m:
        qn = q**n
        for _ in range(m):
            weights.append(weights[-1] * qn)
    width, height = weights[s], weights[k]
    entries = rel.basis.entries
    # each RREF row's pivot, its first nonzero entry, lies right of the one
    # above, and the columns passed over on the way to it are free
    bases = [i * m for i in range(rel.basis.rows)]
    pivots, free, c = [], [], 0
    for base in bases:
        while not entries[base + c]:
            free.append(c)
            c += 1
        pivots.append(c)
        c += 1
    free += range(c, m)
    offsets = [0]
    for c in free:
        w = weights[c]
        offsets = [o + step for step in range(0, w * q, w) for o in offsets]
    neg, mul, translate = F.neg, F.mul, F.translate
    for base, pc in zip(bases, pivots):
        # the pivot value at a point is the sum of -row[c] times free value c
        row = [entries[base + c] for c in free]
        if not any(row):
            continue
        values = [0]
        for x in row:
            if x:
                x = neg(x)
                grown = values[:]
                for v in range(1, q):
                    grown += translate(values, mul(v, x))
                values = grown
            else:
                values = values * q
        w = weights[pc]
        offsets = [o + w * v for o, v in zip(offsets, values)]
    cells = offsets if n else [0]  # at rank 0 the one cell is (0, 0)
    if free:  # else the kernel is 0, and its one cell is (0, 0) at every n
        qj = 1
        for _ in range(1, n):
            qj *= q
            shifted = [o * qj for o in offsets]
            cells = [cell + o for cell in cells for o in shifted]
    mat = QMat._trusted(height, width, dict.fromkeys(cells, 1))
    return ConcreteMap._trusted(F, n, s, k, mat)


def specialize(f: Morphism, n: int) -> ConcreteMap:
    """Evaluate every coefficient at t = q^n and sum the basis matrices;
    the cells of every f_R to build are counted before any is built.

    An integral coefficient scales as an int, so integer combinations keep
    int entries, and a one-term sum is its scaled f_R itself.
    """
    F = f.field
    _guard(F, n, f.s, f.k)
    t_value = None
    if any(coeff.degree() > 0 for coeff in f.terms.values()):
        # t = q^n is refused by its digit count before it is formed
        limit = 10**COUNT_DIGITS
        t_value = capped_power(F.q, n, limit)
        if t_value >= limit:
            raise TooLarge(f"specialize: t = q^n has more than {COUNT_DIGITS} digits at n = {n}")
    values = {}
    for rel, coeff in f.terms.items():
        value = coeff.constant_value() if t_value is None else coeff.evaluate(t_value)
        if value:
            values[rel] = value.numerator if value.denominator == 1 else value
    _check_cells(F, n, values, "specialize")
    acc = None
    for rel, value in values.items():
        mat = f_r_matrix(rel, n).mat.scale(value)
        acc = mat if acc is None else acc.add(mat)
    if acc is None:
        acc = QMat.zero(F.q ** (n * f.k), F.q ** (n * f.s))
    return ConcreteMap(F, n, f.s, f.k, acc)


def independence_check(field: Fq, s: int, k: int, n: int) -> tuple[int, bool]:
    """Rank of the stacked, vectorized basis matrices at rank n.

    The stack has one row of q^(n(s+k)) columns per subspace of F_q^{s+k}.
    A stack of more than SIZE_GUARD cells is refused before any subspace is
    listed, and so is a count of subspaces past CELL_GUARD, since each f_R
    has a cell at least; the f_R cells are summed before any is built.
    """
    r = s + k
    count = subspace_count(field, r)
    if count * capped_power(field.q, n * r, SIZE_GUARD) > SIZE_GUARD:
        raise TooLarge(f"{count} vectorized matrices of q^(n(s+k)) entries exceed {SIZE_GUARD}")
    if count > CELL_GUARD:
        raise TooLarge(f"independence check: more than {CELL_GUARD} f_R cells at n = {n}")
    rels = [Relation._trusted(field, s, k, b) for b in enumerate_subspaces(field, r)]
    _check_cells(field, n, rels, "independence check")
    width = field.q ** (n * r)
    stack = QMat._trusted_rows(len(rels), width, (f_r_matrix(rel, n).mat.vec() for rel in rels))
    rank = stack.rank()
    return rank, rank == len(rels)


def rel_infty_stability(rel: Relation, n: int) -> bool:
    """Restriction of the rank-(n+1) matrix to embedded tuples equals rank n.

    A tuple over F_q^n embeds in F_q^(n+1) with a last coordinate 0 in each
    vector, so its digit of weight q^(n i + j) moves to weight
    q^((n+1) i + j).  A flat f_R index is the index of the (domain |
    codomain) tuple, so the rank-(n+1) cells in embedded columns must be the
    rank-n cells re-weighted so.  Only meaningful for relations surjecting
    onto the codomain block; the image of an embedded tuple must itself be
    supported on embedded tuples.
    """
    if not is_rel_infty(rel):
        raise NotRelInfty(f"{rel!r} does not surject onto the codomain block")
    q, s, m = rel.field.q, rel.s, rel.s + rel.k
    cells, big_cells = f_r_matrix(rel, n).mat.vec(), f_r_matrix(rel, n + 1).mat.vec()
    # the codes of one vector at rank n and n + 1; with no vector the f_R are
    # [[1]] at any n, which forms no q^n
    small, big = (q**n, q ** (n + 1)) if m else (1, 1)
    expected = {}
    for key, v in cells.items():
        out, weight = 0, 1
        for _ in range(m):
            key, code = divmod(key, small)
            out += code * weight
            weight *= big
        expected[out] = v
    got = {}
    for key, v in big_cells.items():
        col = key
        for _ in range(s):
            col, code = divmod(col, big)
            if code >= small:
                break
        else:
            got[key] = v
    return got == expected
