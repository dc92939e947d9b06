"""Typed AST for morphism expressions over the generator alphabet.

Nodes carry their inferred (dom, cod) arities; building an ill-typed
composite raises ArityMismatch immediately, and they carry their
evaluation cost the same way (``Term``).  Besides the node classes this
module holds the definitions of ev, coev and z* (``DEFINED``), the
decomposition of a basis arrow into the generator alphabet
(``decompose_generators``) and the structural term builders it composes:
iterated comultiplication and addition, strand permutations assembled
from adjacent swaps, the matrix-action expansion, and the strandwise
pairing caps/cups.  A permutation's swap chain carries the permutation
(``Compose.perm``), so the evaluators can take it whole rather than swap
by swap; it still equals, hashes and prints like the chain.

Terms are immutable.  The builders whose result depends only on small
integers (``atom``, ``adjacent_swap_term``, ``perm_term``, the iterated
comultiplication and addition, the shape-only frame of ``mu_matrix_term``
and the pairing caps/cups) return one shared instance per argument from a
bounded cache, so a term-keyed cache hits on identity instead of comparing
a rebuilt copy node by node.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ArityMismatch, UnknownGenerator
from .matrix import MatFq
from .poly import PolyQ
from .relations import GENERATOR_ALIASES, GENERATOR_ARITIES, Relation


class Term:
    """Base class; every node has .dom and .cod strand counts.

    Its evaluation cost (``frobenius.term_steps``) is .units, the uses of
    the unit eps, each of which fans a column out D-fold, and .width, the
    strands of its widest layer.  A defined map (``DEFINED``) costs what its
    definition costs, and a matrix literal is as wide as its expansion.  A
    tensor adds the uses and the widths of its sides, a composite adds the
    uses and takes the wider side, and a linear combination takes the most
    of each over all its parts, zero coefficients included.

    Equality is structural, on the tuple ``_key()``.  Every constructor ends
    with ``_seal()``, which stores the hash from the stored hashes of the
    children, so hashing a term never recurses, however deep it is.
    """

    __slots__ = ("dom", "cod", "units", "width", "_hash")

    def _key(self) -> tuple:
        raise NotImplementedError

    def _seal(self):
        self._hash = hash((type(self), self._key()))

    def __eq__(self, other):
        return self is other or (
            type(self) is type(other) and self._hash == other._hash and self._key() == other._key()
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return to_text(self)


class Gen(Term):
    __slots__ = ("name", "a")

    def __init__(self, name: str, a: int | None = None):
        name = GENERATOR_ALIASES.get(name, name)
        if name not in GENERATOR_ARITIES:
            raise UnknownGenerator(f"unknown generator {name!r}")
        if (name == "mu") != (a is not None):
            raise UnknownGenerator("exactly the mu generator takes a scalar")
        self.name = name
        self.a = a
        self.dom, self.cod = GENERATOR_ARITIES[name]
        defined = DEFINED.get(name)
        self.units = defined.units if defined else int(name == "eps")
        self.width = defined.width if defined else max(self.dom, self.cod)
        self._seal()

    def _key(self) -> tuple:
        return (self.name, self.a)


class RelLit(Term):
    __slots__ = ("rel",)

    def __init__(self, rel: Relation):
        self.rel = rel
        self.dom, self.cod = rel.s, rel.k
        self.units, self.width = 0, max(rel.s, rel.k)
        self._seal()

    def _key(self) -> tuple:
        return (self.rel,)


class MuLit(Term):
    __slots__ = ("mat",)

    def __init__(self, mat: MatFq):
        self.mat = mat
        self.dom, self.cod = mat.cols, mat.rows
        self.units, self.width = 0, max(mat.rows * mat.cols, mat.rows, mat.cols)
        self._seal()

    def _key(self) -> tuple:
        return (self.mat,)


class IdK(Term):
    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 0:
            raise ArityMismatch("id needs k >= 0")
        self.k = k
        self.dom = self.cod = self.width = k
        self.units = 0
        self._seal()

    def _key(self) -> tuple:
        return (self.k,)


class Compose(Term):
    """left ∘ right: the right factor is applied first.

    .perm is None, except on the chain ``perm_term`` builds, where it is the
    permutation the chain composes to; it is not part of the key, so that
    chain equals, hashes and prints like any other copy of it.
    """

    __slots__ = ("left", "right", "perm")

    def __init__(self, left: Term, right: Term):
        if right.cod != left.dom:
            raise ArityMismatch(
                f"compose: {to_text(left)} expects {left.dom} strands, "
                f"{to_text(right)} delivers {right.cod}"
            )
        self.left = left
        self.right = right
        self.perm = None
        self.dom, self.cod = right.dom, left.cod
        self.units = left.units + right.units
        self.width = max(left.width, right.width)
        self._seal()

    def _key(self) -> tuple:
        return (self.left, self.right)


class Tensor(Term):
    """left ⊗ right: the left factor is the left tensor strand."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        self.dom = left.dom + right.dom
        self.cod = left.cod + right.cod
        self.units = left.units + right.units
        self.width = left.width + right.width
        self._seal()

    def _key(self) -> tuple:
        return (self.left, self.right)


class LinComb(Term):
    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple((c if isinstance(c, PolyQ) else PolyQ.const(c), t) for c, t in parts)
        if not parts:
            raise ArityMismatch("empty linear combination has no arity")
        arities = {(t.dom, t.cod) for _, t in parts}
        if len(arities) > 1:
            raise ArityMismatch(f"linear combination mixes arities {sorted(arities)}")
        self.parts = parts
        self.dom, self.cod = parts[0][1].dom, parts[0][1].cod
        self.units = max(t.units for _, t in parts)
        self.width = max(t.width for _, t in parts)
        self._seal()

    def _key(self) -> tuple:
        return self.parts


# -- printing ---------------------------------------------------------------

_PREC_LINCOMB, _PREC_TENSOR, _PREC_COMPOSE, _PREC_ATOM = 0, 1, 2, 3


def _prec(term: Term) -> int:
    if isinstance(term, LinComb):
        return _PREC_LINCOMB
    if isinstance(term, Tensor):
        return _PREC_TENSOR
    if isinstance(term, Compose):
        return _PREC_COMPOSE
    return _PREC_ATOM


def _wrap(term: Term, minimum: int) -> str:
    text = to_text(term)
    return f"({text})" if _prec(term) < minimum else text


def to_text(term: Term) -> str:
    """Grammar-compatible rendering; parse(to_text(t)) == t."""
    if isinstance(term, Gen):
        return f"mu({term.a})" if term.name == "mu" else term.name
    if isinstance(term, IdK):
        return f"id({term.k})"
    if isinstance(term, RelLit):
        return term.rel.to_text()
    if isinstance(term, MuLit):
        rows = ",".join(
            "[" + ",".join(map(str, term.mat.row(i))) + "]" for i in range(term.mat.rows)
        )
        return f"muM({term.mat.cols};[{rows}])"
    if isinstance(term, Compose):
        return f"{_wrap(term.left, _PREC_COMPOSE)} . {_wrap(term.right, _PREC_COMPOSE + 1)}"
    if isinstance(term, Tensor):
        return f"{_wrap(term.left, _PREC_TENSOR)} @ {_wrap(term.right, _PREC_TENSOR + 1)}"
    if isinstance(term, LinComb):
        parts = []
        for coeff, sub in term.parts:
            c = str(coeff)
            if ("+" in c[1:]) or ("-" in c[1:]) or c.startswith("-"):
                c = f"({c})"
            parts.append(f"{c} * {_wrap(sub, _PREC_TENSOR)}")
        return " + ".join(parts)
    raise TypeError(f"not a Term: {term!r}")


# -- structural builders ------------------------------------------------------

# Entries each builder cache keeps; the least recently used one is dropped past it.
BUILDER_CACHE = 256


@lru_cache(maxsize=BUILDER_CACHE)
def atom(name: str, a: int | None = None) -> Gen:
    """The shared instance of a generator atom."""
    return Gen(name, a)


def t_id(k: int) -> Term:
    return IdK(k)


def t_compose(*factors: Term) -> Term:
    """Left-associated composition chain; identity factors are elided."""
    for f, g in zip(factors, factors[1:]):
        if f.dom != g.cod:
            raise ArityMismatch(
                f"compose chain: {to_text(f)} expects {f.dom}, {to_text(g)} delivers {g.cod}"
            )
    real = [f for f in factors if not isinstance(f, IdK)]
    if not real:
        return factors[0]
    out = real[0]
    for f in real[1:]:
        out = Compose(out, f)
    return out


def t_tensor(*factors: Term) -> Term:
    """Tensor chain; id(0) factors are elided and pure-id chains merged."""
    real = [f for f in factors if not (isinstance(f, IdK) and f.k == 0)]
    if not real:
        return IdK(0)
    if all(isinstance(f, IdK) for f in real):
        return IdK(sum(f.k for f in real))
    out = real[0]
    for f in real[1:]:
        out = Tensor(out, f)
    return out


def t_power(term: Term, n: int) -> Term:
    return t_tensor(*([term] * n)) if n else IdK(0)


# The maps the axiom list defines by the stored ones; a term that uses one is
# compiled through its definition.  Each is entered before any atom of it is
# built, so its shared atom takes the definition's cost (z*'s uses ev).
DEFINED: dict[str, Term] = {}
DEFINED["ev"] = t_compose(atom("eps*"), atom("m"))
DEFINED["coev"] = t_compose(atom("m*"), atom("eps"))
DEFINED["z*"] = t_compose(atom("ev"), t_tensor(t_id(1), atom("z")))


@lru_cache(maxsize=BUILDER_CACHE)
def adjacent_swap_term(i: int, k: int) -> Term:
    """The swap of strands i, i+1 among k strands."""
    return t_tensor(t_id(i), atom("sigma"), t_id(k - i - 2))


def perm_term(p) -> Term:
    """A sigma-composite sending input strand j to output strand p[j]; a
    chain of two or more swaps carries p (``Compose.perm``)."""
    return _perm_term(tuple(p))


@lru_cache(maxsize=BUILDER_CACHE)
def _perm_term(p: tuple) -> Term:
    k = len(p)
    dest = list(p)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            if dest[i] > dest[i + 1]:
                dest[i], dest[i + 1] = dest[i + 1], dest[i]
                swaps.append(i)
                changed = True
    term = t_id(k)
    for i in swaps:
        term = t_compose(adjacent_swap_term(i, k), term)
    if isinstance(term, Compose):
        term.perm = p
    return term


def grid_transpose_perm(groups: int, copies: int) -> list[int]:
    """Regroup `groups` blocks of `copies` strands into `copies` blocks of `groups`."""
    p = [0] * (groups * copies)
    for j in range(groups):
        for i in range(copies):
            p[j * copies + i] = i * groups + j
    return p


@lru_cache(maxsize=BUILDER_CACHE)
def mstar_it_term(r: int) -> Term:
    """Iterated comultiplication [1] -> [r]; r = 0 is the counit.

    Splits the leftmost strand each time: (m* ⊗ Id^{r-2}) ∘ ... ∘ m*.
    """
    if r == 0:
        return atom("eps*")
    if r == 1:
        return t_id(1)
    factors = [t_tensor(atom("m*"), t_id(r - 2 - i)) for i in range(r - 1)]
    return t_compose(*factors)


@lru_cache(maxsize=BUILDER_CACHE)
def plus_it_term(d: int) -> Term:
    """Iterated addition [d] -> [1]; d = 0 is the zero vector.

    Sums the leftmost pair each time: plus ∘ (plus ⊗ Id) ∘ ... .
    """
    if d == 0:
        return atom("z")
    if d == 1:
        return t_id(1)
    factors = [t_tensor(atom("plus"), t_id(i)) for i in range(d - 1)]
    return t_compose(*factors)


def mu_matrix_term(a: MatFq) -> Term:
    """Expand the matrix action [cols] -> [rows] into generators.

    Each input strand is comultiplied into one copy per output, the grid
    is transposed so copies group by output, each copy is scaled by its
    matrix entry, and each output group is summed.  Only the scaling
    depends on the entries; the rest is the shared frame of the shape.
    """
    out_n, in_n = a.rows, a.cols
    if in_n == 0:
        return t_tensor(*[atom("z")] * out_n) if out_n else t_id(0)
    if out_n == 0:
        return t_tensor(*[atom("eps*")] * in_n)
    split, transpose, add = _mu_frame(out_n, in_n)
    scale = t_tensor(*[atom("mu", a[i, j]) for i in range(out_n) for j in range(in_n)])
    return t_compose(add, scale, transpose, split)


@lru_cache(maxsize=BUILDER_CACHE)
def _mu_frame(out_n: int, in_n: int):
    """The split, transpose and add steps of a nonempty shape's expansion."""
    split = t_tensor(*[mstar_it_term(out_n)] * in_n)
    transpose = perm_term(grid_transpose_perm(in_n, out_n))
    return split, transpose, t_tensor(*[plus_it_term(in_n)] * out_n)


def phi_term(basis: MatFq) -> Term:
    """The pairing form [cols] -> [0] of a subspace basis matrix."""
    d = basis.rows
    mu = mu_matrix_term(basis)
    if d == 0:
        return mu if basis.cols else t_id(0)
    return t_compose(t_tensor(*[atom("z*")] * d), mu)


def reversal_term(k: int) -> Term:
    return perm_term([k - 1 - j for j in range(k)])


@lru_cache(maxsize=BUILDER_CACHE)
def ev_bar_term(k: int) -> Term:
    """Strandwise pairing [2k] -> [0] from nested ev caps."""
    if k == 0:
        return t_id(0)
    nested = atom("ev")
    for j in range(1, k):
        nested = t_compose(nested, t_tensor(t_id(j), atom("ev"), t_id(j)))
    return t_compose(nested, t_tensor(t_id(k), reversal_term(k)))


@lru_cache(maxsize=BUILDER_CACHE)
def coev_bar_term(k: int) -> Term:
    if k == 0:
        return t_id(0)
    nested = atom("coev")
    for j in range(1, k):
        nested = t_compose(t_tensor(t_id(j), atom("coev"), t_id(j)), nested)
    return t_compose(t_tensor(t_id(k), reversal_term(k)), nested)


def decompose_generators(rel: Relation) -> Term:
    """A generator-alphabet term that evaluates to exactly 1 · f_rel.

    The term is the pairing form of rel (its basis matrix expanded into
    comultiplications, strand permutations, scalings and additions, capped
    by zero-tests) snake-composed back into a [s] -> [k] arrow.
    """
    s, k = rel.s, rel.k
    form = phi_term(rel.basis)
    if k == 0:
        return form
    left = t_tensor(form, t_id(k))
    right = t_tensor(t_id(s), coev_bar_term(k)) if s else coev_bar_term(k)
    return t_compose(left, right)
