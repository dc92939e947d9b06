"""The relation calculus on typed subspaces.

A ``Relation`` is a linear subspace R of F_q^{s+k} read as a formal arrow
[s] -> [k]; it is stored as its unique RREF basis so equality is
structural.  This module implements the star composition with its defect,
tensor products, the orthogonal-complement indexing with its fiber-product
composition, membership and normal forms for the stable subfamily whose
members surject onto the codomain block, and the generator table.

``star`` and ``knop_diamond`` share one elimination, ``_compose``: the
rows of both relations are stacked with the middle block in front and
row-reduced once by ``matrix.row_reduce``.  The composite, the defect and
the diamond's kernel dimension are all read off that one reduced form.
"""

from __future__ import annotations

from .errors import (
    ArityMismatch,
    FieldMismatch,
    InvalidPermutation,
    NotRelInfty,
    TooLarge,
    UnknownGenerator,
)
from .field import Fq
from .matrix import MatFq, null_rows, row_reduce

# A relation on n = s + k strands and its orthogonal complement have n basis
# rows of n cells between them.  Literals and generators are refused above
# this many cells: id(512) is the largest identity, and id(400) still
# evaluates and prints (640 kB of text) in well under a second.
RELATION_CELLS = 2**20


def _check_cells(s: int, k: int):
    n = s + k
    if n * n > RELATION_CELLS:
        raise TooLarge(f"a relation on {n} strands needs {n * n} matrix cells (limit {RELATION_CELLS})")


class Relation:
    """A subspace R ⊂ F_q^{s+k} typed as an arrow [s] -> [k].

    Relations are immutable and key many dicts (formal terms, f_R builds),
    so the hash is computed on first use and kept in ``_hash``.
    """

    __slots__ = ("field", "s", "k", "basis", "_hash")

    def __init__(self, field: Fq, s: int, k: int, basis: MatFq):
        if basis.field != field:
            raise FieldMismatch("basis field differs from the relation field")
        if basis.cols != s + k:
            raise ArityMismatch(f"basis has {basis.cols} columns, arities give {s + k}")
        _check_cells(s, k)
        self.field = field
        self.s = s
        self.k = k
        self.basis = basis.rref()[0]
        self._hash = None

    @classmethod
    def _trusted(cls, field: Fq, s: int, k: int, basis: MatFq) -> "Relation":
        """Wrap a basis that is already in RREF, without reducing it again."""
        rel = object.__new__(cls)
        rel.field, rel.s, rel.k, rel.basis, rel._hash = field, s, k, basis, None
        return rel

    @classmethod
    def from_rows(cls, field: Fq, s: int, k: int, rows) -> "Relation":
        return cls(field, s, k, MatFq.from_rows(field, rows, s + k))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Relation)
            and self.field == other.field
            and (self.s, self.k) == (other.s, other.k)
            and self.basis == other.basis
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.field, self.s, self.k, self.basis))
        return h

    def sort_key(self):
        return (self.dim, self.basis.entries)

    def to_text(self) -> str:
        rows = ",".join("[" + ",".join(map(str, self.basis.row(i))) + "]"
                        for i in range(self.dim))
        return f"rel({self.field};{self.s},{self.k};[{rows}])"

    __repr__ = to_text

    def to_json(self) -> dict:
        return {"s": self.s, "k": self.k, "basis": self.basis.to_json()}

    def retype(self, s: int, k: int) -> "Relation":
        """The same subspace read with a different (s, k) split."""
        if s + k != self.s + self.k:
            raise ArityMismatch("retype must preserve the ambient dimension")
        return Relation._trusted(self.field, s, k, self.basis)

    def perp(self) -> "Relation":
        """Orthogonal complement in the same ambient space, same typing.

        The complement of a row space under the standard dot product is its
        null space; ``null_rows`` reads it off the RREF basis and one
        reduction makes it canonical.
        """
        F, n = self.field, self.s + self.k
        basis, _ = row_reduce(F, null_rows(F, self.basis.tolist(), n), n)
        return Relation._trusted(F, self.s, self.k, MatFq._trusted_rows(F, basis, n))


def _compose(r: Relation, s: Relation, sign: int, op: str) -> tuple[Relation, int, int]:
    """The one elimination behind ``star`` and ``knop_diamond``.

    r: [ns]->[nk] and s: [nk]->[nl].  Each row (v, w) of r becomes
    [w | v | 0] and each row (w, u) of s becomes [sign*w | 0 | u], in
    F_q^{nk+ns+nl}; one row reduction of the stack gives its RREF.  With
    the middle block in front, the rows without a middle pivot are zero
    there, so cutting the middle block off them leaves the RREF basis of
    {(v, u) : (v, w) in r, (-sign*w, u) in s}.  Returns that relation,
    the number of middle pivots (the rank of the middle projection) and
    the rank of the stack.
    """
    if r.field != s.field:
        raise FieldMismatch(f"{op} over different fields")
    if r.k != s.s:
        raise ArityMismatch(f"middle arity mismatch: {r.k} vs {s.s}")
    F = r.field
    ns, nk, nl = r.s, r.k, s.k
    rows = []
    for i in range(r.dim):
        v = r.basis.row(i)
        rows.append(list(v[ns:] + v[:ns]) + [0] * nl)
    for i in range(s.dim):
        v = s.basis.row(i)
        mid = list(v[:nk]) if sign == 1 else F.scale_row(F.neg(1), v[:nk])
        rows.append(mid + [0] * ns + list(v[nk:]))
    red, pivots = row_reduce(F, rows, nk + ns + nl)
    middle = sum(1 for c in pivots if c < nk)
    outer = tuple(x for row in red[middle:] for x in row[nk:])
    basis = MatFq._trusted(F, len(red) - middle, ns + nl, outer)
    return Relation._trusted(F, ns, nl, basis), middle, len(red)


def star(r: Relation, s: Relation) -> tuple[Relation, int]:
    """Compose r: [s]->[k] with s: [k]->[l]; returns (s ⋆ r, defect d).

    The sum (r,0)+(0,s) is formed inside F_q^{s+k+l}; the composite is its
    intersection with the middle-zero subspace, the middle block deleted;
    the defect is the middle-block codimension of the projection.
    """
    composite, middle, _ = _compose(r, s, 1, "star")
    return composite, r.k - middle


def product(r1: Relation, r2: Relation) -> Relation:
    """Tensor product; ambient coordinates ordered [dom1|dom2|cod1|cod2].

    Each RREF basis keeps its pivots in its own column blocks, and the two
    blocks share no column, so the rows sorted by pivot are already in RREF.
    """
    if r1.field != r2.field:
        raise FieldMismatch("product over different fields")
    F = r1.field
    s1, k1, s2, k2 = r1.s, r1.k, r2.s, r2.k
    _check_cells(s1 + s2, k1 + k2)
    total = s1 + s2 + k1 + k2
    rows = []
    for i in range(r1.dim):
        v = r1.basis.row(i)
        row = [0] * total
        row[:s1] = v[:s1]
        row[s1 + s2 : s1 + s2 + k1] = v[s1:]
        rows.append(row)
    for i in range(r2.dim):
        v = r2.basis.row(i)
        row = [0] * total
        row[s1 : s1 + s2] = v[:s2]
        row[s1 + s2 + k1 :] = v[s2:]
        rows.append(row)
    rows.sort(key=lambda row: next(j for j, x in enumerate(row) if x))
    return Relation._trusted(F, s1 + s2, k1 + k2, MatFq._trusted_rows(F, rows, total))


def knop_diamond(rp: Relation, sp: Relation) -> tuple[Relation, int]:
    """Fiber-product composition of the orthogonal indexing.

    ``rp``: [s]->[k] and ``sp``: [k]->[l] are composed by forming
    T = {(v,w,u) : (v,w) ∈ rp, (w,u) ∈ sp}, projecting to the outer
    coordinates, and reporting the kernel dimension e of that projection.
    The kernel is {(0,w,0) ∈ T}, which is also the kernel of the map
    rp ⊕ sp -> stack that ``_compose`` reduces, so e = dim rp + dim sp
    minus the rank of the stack.
    """
    image, _, rank = _compose(rp, sp, -1, "diamond")
    return image, rp.dim + sp.dim - rank


# -- the stable subfamily (surjective onto the codomain block) ----------


def is_rel_infty(r: Relation) -> bool:
    """True iff the projection of R onto the last k coordinates is onto."""
    return r.basis.take_cols(range(r.s, r.s + r.k)).rank() == r.k


def rel_infty_normal_form(r: Relation) -> tuple[MatFq, MatFq]:
    """Write R = Row[-A I_k; A' 0] with A' of full row rank, in RREF.

    Returns (A, A') with A of shape k x s and A' of shape (dim R - k) x s.
    Deterministic: comes from the one RREF of the basis with the codomain
    block moved in front.  R surjects onto that block exactly when the
    block has rank k, that is when the first k pivots are its columns.
    """
    F, s, k = r.field, r.s, r.k
    permuted = r.basis.take_cols(list(range(s, s + k)) + list(range(s)))
    red, pivots = row_reduce(F, permuted.tolist(), s + k)
    if pivots[:k] != list(range(k)):
        raise NotRelInfty(f"{r!r} does not surject onto the codomain block")
    # rank-k head: rows (e_i | a_i) ; tail rows (0 | a')
    a = MatFq._trusted_rows(F, [row[k:] for row in red[:k]], s).neg()
    ap = MatFq._trusted_rows(F, [row[k:] for row in red[k:]], s)
    return a, ap


def rel_infty_from_parts(a: MatFq, ap: MatFq) -> Relation:
    """Assemble Row[-A I_k; A' 0] as a relation [s] -> [k]."""
    F = a.field
    k, s = a.rows, a.cols
    top = a.neg().hstack(MatFq.identity(F, k))
    bottom = ap.hstack(MatFq.zeros(F, ap.rows, k))
    return Relation(F, s, k, top.vstack(bottom))


# -- generator table ----------------------------------------------------


def identity_relation(field: Fq, k: int) -> Relation:
    _check_cells(k, k)
    return permutation_relation(field, range(k))


def sigma_relation(field: Fq, l: int, k: int) -> Relation:
    """The symmetry [l+k] -> [k+l] swapping the two blocks."""
    return permutation_relation(field, [k + i for i in range(l)] + list(range(k)))


def permutation_relation(field: Fq, p) -> Relation:
    """Relation of the strand permutation sending input i to output p[i].

    Concretely the induced map takes v_1 ⊗ ... ⊗ v_k to the tuple whose
    p(i)-th slot is v_i.  The rows e_i - e_{k+p(i)} are already in RREF.
    """
    p = tuple(p)
    k = len(p)
    _check_cells(k, k)
    if sorted(p) != list(range(k)):
        raise InvalidPermutation(f"{p} is not a permutation of 0..{k - 1}")
    entries = [0] * (2 * k * k)
    for i in range(k):
        entries[i * 2 * k + i] = 1
        entries[i * 2 * k + k + p[i]] = field.neg(1)
    return Relation._trusted(field, k, k, MatFq._trusted(field, k, 2 * k, tuple(entries)))


def mu_relation(a: MatFq) -> Relation:
    """Row[-A | I_r] typed [d] -> [r]: the 'multiply the tuple by A' arrow."""
    F = a.field
    r, d = a.rows, a.cols
    m = a.neg().hstack(MatFq.identity(F, r))
    return Relation(F, d, r, m)


def ev_bar_relation(field: Fq, k: int) -> Relation:
    """Strandwise pairing [2k] -> [0]: Row[I_k | -I_k]."""
    return identity_relation(field, k).retype(2 * k, 0)


def coev_bar_relation(field: Fq, k: int) -> Relation:
    return identity_relation(field, k).retype(0, 2 * k)


# name -> (s, k, rows): each generator's RREF basis.  Its entries are 0 and
# ±1, so the rows are in RREF over every field.  mu(a) takes a scalar and is
# built in ``generator_relation``.
GENERATORS = {
    "eps": (0, 1, []),
    "eps*": (1, 0, []),
    "m": (2, 1, [[1, 0, -1], [0, 1, -1]]),
    "m*": (1, 2, [[1, 0, -1], [0, 1, -1]]),
    "sigma": (2, 2, [[1, 0, 0, -1], [0, 1, -1, 0]]),
    "z": (0, 1, [[1]]),
    "z*": (1, 0, [[1]]),
    "plus": (2, 1, [[1, 1, -1]]),
    "ev": (2, 0, [[1, -1]]),
    "coev": (0, 2, [[1, -1]]),
}

GENERATOR_ARITIES = {name: (s, k) for name, (s, k, _) in GENERATORS.items()}
GENERATOR_ARITIES["mu"] = (1, 1)

# Identifier-safe spellings of the starred generators.
GENERATOR_ALIASES = {"eps_star": "eps*", "m_star": "m*", "z_star": "z*"}


def generator_relation(field: Fq, name: str, a: int | None = None) -> Relation:
    """The defining subspace of a named generator, in RREF.

    Names: the keys of GENERATORS, and mu (needs the scalar a), whose
    relation Row[-a | 1] has the RREF basis [1, -1/a], or [0, 1] at a = 0.
    Aliases eps_star/m_star/z_star are accepted.
    """
    name = GENERATOR_ALIASES.get(name, name)
    if name == "mu":
        if a is None:
            raise UnknownGenerator("mu needs a scalar argument")
        a = field.check(a)
        s, k, rows = 1, 1, [[1, field.neg(field.inv(a))] if a else [0, 1]]
    elif name in GENERATORS:
        s, k, rows = GENERATORS[name]
    else:
        raise UnknownGenerator(f"unknown generator {name!r}")
    return Relation._trusted(field, s, k, MatFq.from_rows(field, rows, s + k))


# -- random sampling (deterministic given the rng) -----------------------


def random_matrix(rng, field: Fq, rows: int, cols: int) -> MatFq:
    """A rows x cols matrix of uniform codes, drawn in row-major order."""
    codes = tuple(rng.randrange(field.q) for _ in range(rows * cols))
    return MatFq._trusted(field, rows, cols, codes)


def random_relation(rng, field: Fq, s: int, k: int) -> Relation:
    _check_cells(s, k)
    n = s + k
    nrows = rng.randrange(n + 1)
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(nrows)]
    # the codes are valid already: one reduction gives the canonical basis
    basis, _ = row_reduce(field, rows, n)
    return Relation._trusted(field, s, k, MatFq._trusted_rows(field, basis, n))


def random_rel_infty(rng, field: Fq, s: int, k: int) -> Relation:
    _check_cells(s, k)
    a = random_matrix(rng, field, k, s)
    ap = random_matrix(rng, field, rng.randrange(s + 1), s)
    return rel_infty_from_parts(a, ap)


def random_invertible(rng, field: Fq, n: int) -> MatFq:
    while True:
        m = random_matrix(rng, field, n, n)
        if m.is_invertible():
            return m
