"""Structure checker for concrete field-linear (semi-)Frobenius spaces.

A candidate structure has one exact rational map per generator atom: merge
m, split m*, counit eps*, vector addition plus, zero vector z, one scaling
map mu(a) per field element, and optionally the unit eps, each read column
by column, from a checked matrix or, on the standard target, from field
arithmetic on the basis index.  The axioms are one sequence of generator term pairs
(``frobenius_axiom_terms``, handed out one at a time), checked formally by
the suites and on a structure by ``check_axioms``, which takes those pairs,
evaluates both sides of each and names the first cell where they differ
(``first_difference``).  When the unit is absent the candidate is checked
as a semi-Frobenius space: a pair is skipped when compiling it raises
MissingUnit, which happens before any map is formed.

Every map formed on a structure comes from one evaluator, ``term_eval``.
Tensor powers are interpreted by the library's Kronecker indexing (first
factor least significant).  A term is evaluated in two tiers.  It is
compiled once per structure into a tree of nodes cached on the structure
by term: a stored map is a ``_Stored`` node that computes each column the
first time it is read and keeps it, ev, coev and z* compile their
definitions (``terms.DEFINED``), and other composites hold their compiled
children, so subterms shared between terms are compiled once; the term
builders hand out shared instances, so the cache mostly hits on identity.
A strand permutation is a ``_Perm``, which maps the base-D digits of an
index and holds no matrix.  The swap chain ``terms.perm_term`` builds
carries its permutation and compiles to one ``_Perm`` without compiling
its swaps; any other permutation is compiled bottom-up by the same walk:
sigma is a ``_Perm``, and a tensor chain of permutations and identities is
one ``_Perm``.  A composition chain is one node over its factors, in which
each run of adjacent permutations is one ``_Perm``, or nothing when it
composes to the identity; a run followed by a ``_Kron`` whose factors
each take at most one strand folds into that node's per-factor input
weights (``_fold``).  A nonempty matrix literal compiles straight from its
matrix, with no expansion term built: one ``_Kron`` of its mu(a_ij)
scalings between the compiled split and add nodes of its shape's frame
(``terms._mu_frame``), which every literal of that shape shares; the
frame's transpose folds into that ``_Kron``.  Any other tensor chain is
one node too: a whisker over its one factor that is not an identity, else
one flat ``_Kron`` over all its factors; both subscript a stored map's
node directly.  Each call then asks the root for basis columns, so wide
intermediate tensor powers never materialize as full matrices.  Chain and
combination nodes, like stored maps, keep each column they compute for
the structure's life, so a subterm that terms share (the sides of a pair,
the pairs of a suite, ``hat_f`` realizations) computes each column once
per structure and t value; ``_Kron`` keeps none, as its columns are products of its
factors' stored or kept ones, and the root's columns stream into the
result without being kept.
``hat_f`` evaluates the one term of a relation's normal form
(``hat_f_term``) and caches the result on the structure by relation.
``check_steps`` charges terms' evaluation steps to the one work budget
(``errors.charge``): ``term_steps`` is D^(dom + unit uses) columns through
the widest layer, both read off the term, which carries its cost as it
carries its arity.  It is the layer's one guard: hat_f, the unit path of
``rel_matrix`` and the axiom, lemma and relinfty suites call it before
they evaluate, at a D capped by ``target_dim`` so that no q^n is formed.
Building ``standard_target`` costs nothing in q or D, so it charges
nothing: its maps are functions of the basis index that run only when a
term reads them.
"""

from __future__ import annotations

from contextlib import suppress
from functools import lru_cache

from . import terms as tm
from .errors import (
    WORK_BUDGET,
    MissingUnit,
    NotRelInfty,
    RequiresEvaluation,
    ShapeMismatch,
    TooLarge,
    charge,
)
from .field import Fq, capped_power
from .qmat import QMat
from .relations import Relation, rel_infty_normal_form
from .terms import Term

# The unit, the one map a structure may lack: a semi-Frobenius space has none.
UNIT = tm.atom("eps")


def term_steps(dim: int, term: Term) -> int:
    """D^(dom + unit uses) root columns at D = dim through the widest layer
    (``Term.units`` and ``Term.width``); WORK_BUDGET + 1, without forming
    D^fan, when the exponent passes the budget's bit length."""
    fan = term.dom + term.units
    return WORK_BUDGET + 1 if dim > 1 and fan > WORK_BUDGET.bit_length() else dim**fan * term.width


def check_steps(dim: int, terms, source: str, spent: int = 0) -> int:
    """Charge spent plus the terms' steps at D = dim to the work budget
    (``errors.charge``); returns that total, so a caller can keep a running sum."""
    spent += sum(term_steps(dim, term) for term in terms)
    return charge(spent, source, f"evaluation steps at D = {dim}")


class FrobeniusData:
    """Concrete structure maps on a D-dimensional space.

    Each stored atom (``Gen``), m, m*, eps*, plus, z, every mu(a) and, when
    the structure has a unit, eps, is a D^cod x D^dom map read column by
    column: ``column(atom)`` sends a basis index to its column, a {row: value}
    dict.  The constructor checks one QMat per atom and reads its column
    list; ``_trusted`` takes the function unchecked.  The maps are fixed once
    built: compiled terms and ``hat_f`` results are cached on the structure,
    so a cached value never goes stale.
    """

    __slots__ = ("field", "dim", "has_unit", "column", "_compiled", "_realized")

    def __init__(self, field: Fq, dim: int, maps):
        maps = dict(maps)
        required = [tm.atom(name) for name in ("m", "m*", "eps*", "plus", "z")]
        required += [tm.atom("mu", a) for a in field.elements()]
        for atom in required:
            if atom not in maps:
                raise ShapeMismatch(f"the structure has no map for {atom}")
        for atom, mat in maps.items():
            if atom not in required and atom != UNIT:
                raise ShapeMismatch(f"{atom} is not a stored map")
            rows, cols = dim**atom.cod, dim**atom.dom
            if (mat.rows, mat.cols) != (rows, cols):
                raise ShapeMismatch(f"{atom} must be {rows}x{cols}, got {mat.rows}x{mat.cols}")
        columns = {atom: mat.columns() for atom, mat in maps.items()}
        self._start(field, dim, UNIT in maps, lambda atom: columns[atom].__getitem__)

    @classmethod
    def _trusted(cls, field: Fq, dim: int, column) -> FrobeniusData:
        """A structure with a unit, its atoms' column functions made by ``column``."""
        self = cls.__new__(cls)
        self._start(field, dim, True, column)
        return self

    def _start(self, field: Fq, dim: int, has_unit: bool, column) -> None:
        self.field, self.dim, self.has_unit, self.column = field, dim, has_unit, column
        self._compiled: dict = {}  # t_value -> term -> compiled node (see _compile)
        self._realized: dict = {}  # relation -> its hat_f matrix


class _Power(int):
    """A D past the work budget that a refusal names as q^n."""

    def __new__(cls, dim: int, name: str):
        self = super().__new__(cls, dim)
        self.name = name
        return self

    def __str__(self) -> str:
        return self.name


def target_dim(field: Fq, n: int) -> int:
    """D = q^n of the standard target, capped (``field.capped_power``) rather
    than formed past the budget's bit length; a D past the budget at n > 1
    prints as q^n."""
    dim = capped_power(field.q, n, WORK_BUDGET)
    return dim if n == 1 or dim <= WORK_BUDGET else _Power(dim, f"{field.q}^{n}")


def standard_target(field: Fq, n: int) -> FrobeniusData:
    """The structure on the free vector space over F_q^n, e_v for the tuple of
    base-q digits of v.  It stores no map: an atom's column is a function of
    the basis index, made on the atom's first lookup, so the build costs
    nothing in q or D.  At n > 1 a D past the work budget is refused
    (``target_dim``), as q^n is not formed past it."""
    dim = target_dim(field, n)
    if type(dim) is _Power:
        raise TooLarge(f"standard target: D = {dim}, more than the work budget of {WORK_BUDGET}")
    if n == 1:
        add, scale = field.add, field.mul
    else:  # digit by digit
        q, weights = field.q, [field.q**i for i in range(n)]

        def add(v: int, w: int) -> int:
            return sum(field.add(v // u % q, w // u % q) * u for u in weights)

        def scale(a: int, v: int) -> int:
            return sum(field.mul(a, v // u % q) * u for u in weights)

    def column(atom: tm.Gen):
        # m(e_v @ e_w) = [v = w] e_v, m*(e_v) = e_v @ e_v, eps*(e_v) = 1,
        # eps = sum of the e_v, z = e_0, plus(e_v @ e_w) = e_(v+w), mu(a)(e_v) = e_(a v)
        name, a = atom.name, atom.a
        if name == "m":
            return lambda i: {i % dim: 1} if i % dim == i // dim else {}
        if name == "m*":
            return lambda v: {v + dim * v: 1}
        if name == "eps":
            return lambda _: dict.fromkeys(range(dim), 1)
        if name == "plus":
            return lambda i: {add(i % dim, i // dim): 1}
        return (lambda v: {scale(a, v): 1}) if name == "mu" else (lambda _: {0: 1})

    return FrobeniusData._trusted(field, dim, column)


# -- compiled term evaluation ---------------------------------------------


class _Stored(dict):
    """A stored map, an atom's or a relation literal's, as its columns by index:
    column i is column(i), computed the first time it is read and kept.  A
    QMat's column list is one such function, its every column known."""

    __slots__ = ("column",)

    def __init__(self, column):
        self.column = column

    def __missing__(self, i: int) -> dict:
        out = self[i] = self.column(i)
        return out

    col = dict.__getitem__


class _Id:
    """id(k) for any k."""

    __slots__ = ()

    def col(self, i: int) -> dict:
        return {i: 1}


_ID = _Id()


class _Kept:
    """A node that keeps each column it computes for the structure's life."""

    __slots__ = ("seen",)

    def col(self, i: int) -> dict:
        out = self.seen.get(i)
        if out is None:
            out = self.seen[i] = self.compute(i)
        return out


class _Chain(_Kept):
    """A composite f_n . ... . f_1, flattened; the factors apply in order."""

    __slots__ = ("first", "rest")

    def __init__(self, factors):
        self.seen = {}
        self.first = factors[0]
        self.rest = factors[1:]

    def compute(self, i: int) -> dict:
        vec = self.first.col(i)
        for node in self.rest:
            if len(vec) == 1:
                # the common case: one node column, shared rather than copied when c is 1
                ((j, c),) = vec.items()
                col = node.col(j)
                vec = col if c == 1 else {r: c * v for r, v in col.items()}
                continue
            acc: dict[int, object] = {}
            for j, c in vec.items():
                for r, v in node.col(j).items():
                    acc[r] = acc.get(r, 0) + c * v
            vec = {r: v for r, v in acc.items() if v}
        return vec


class _Kron:
    """A tensor chain f_1 @ ... @ f_n of two or more factors, as one node.

    The first factor is the least significant digit block of an index; an
    identity factor is held as ``_ID``.  Each factor reads its input digits
    at its own weight, by default the D^dom of the factors before it, so a
    strand permutation applied first folds into the weights (``after``).
    It subscripts a stored map's node directly and keeps no columns of its
    own.
    """

    __slots__ = ("factors",)

    def __init__(self, factors, weights=None):
        if weights is None:
            weights, weight = [], 1
            for _, dom, _ in factors:
                weights.append(weight)
                weight *= dom
        # (the node if it is a stored map, else None, node, input weight, D^dom, D^cod)
        self.factors = [
            (node if type(node) is _Stored else None, node, weight, dom, cod)
            for (node, dom, cod), weight in zip(factors, weights)
        ]

    def after(self, perm: _Perm) -> _Kron:
        """This node applied after perm, as one node, when each factor takes
        at most one strand: a factor reads the digit of the strand that perm
        sends to its own."""
        source = {weight: perm.dim**j for j, weight in enumerate(perm.weights)}
        return _Kron(
            [(node, dom, cod) for _, node, _, dom, cod in self.factors],
            [source[weight] if dom > 1 else weight for _, _, weight, dom, _ in self.factors],
        )

    def col(self, i: int) -> dict:
        row, val, scale = 0, 1, 1
        wide = None  # the column so far, once a factor's column has other than one entry
        for cols, node, weight, dom, cod in self.factors:
            j = i // weight % dom
            part = node.col(j) if cols is None else cols[j]
            if wide is None and len(part) == 1:
                ((r, v),) = part.items()
                row += scale * r
                val *= v
            else:
                if wide is None:
                    wide = {row: val}
                wide = {r0 + scale * r: v0 * v for r, v in part.items() for r0, v0 in wide.items()}
            scale *= cod
        return {row: val} if wide is None else wide


class _Perm:
    """A strand permutation other than the identity: input strand j goes to
    output strand p[j].

    Maps the base-D digits of an index and holds no matrix.
    """

    __slots__ = ("dim", "p", "weights")

    def __init__(self, dim: int, p):
        self.dim = dim
        self.p = p
        self.weights = [dim**j for j in p]

    def col(self, i: int) -> dict:
        d = self.dim
        out = 0
        for w in self.weights:
            i, digit = divmod(i, d)
            out += digit * w
        return {out: 1}


class _Whisker:
    """id(a) @ node @ id(b): the node acting on the middle strands."""

    __slots__ = ("node", "cols", "lo", "mid", "out")

    def __init__(self, node, lo: int, mid: int, out: int):
        self.node = node
        self.cols = node if type(node) is _Stored else None
        self.lo = lo  # D^a
        self.mid = mid  # D^dom and D^cod of the node
        self.out = out

    def col(self, i: int) -> dict:
        lo = self.lo
        rest, base = divmod(i, lo)
        rest, j = divmod(rest, self.mid)
        hi = lo * self.out * rest
        part = self.node.col(j) if self.cols is None else self.cols[j]
        return {base + lo * r + hi: v for r, v in part.items()}


class _LinComb(_Kept):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.seen = {}
        self.parts = parts  # (nonzero scalar, node) pairs

    def compute(self, i: int) -> dict:
        acc: dict[int, object] = {}
        for scalar, node in self.parts:
            for r, v in node.col(i).items():
                acc[r] = acc.get(r, 0) + scalar * v
        return {r: v for r, v in acc.items() if v}


def _compile(data: FrobeniusData, term: Term, t_value):
    """The compiled node of a term, built once per (structure, t_value).

    Every subterm is cached, so a subterm shared between terms (the atoms,
    the pieces of matrix-literal expansions) is compiled once.  Missing-unit
    and symbolic-t errors are raised here, for any part of the term whose
    coefficient is not zero.
    """
    cache = data._compiled.get(t_value)
    if cache is None:
        cache = data._compiled[t_value] = {}
    node = cache.get(term)
    if node is None:
        node = cache[term] = _build(data, term, t_value)
    return node


def _build(data: FrobeniusData, term: Term, t_value):
    if isinstance(term, tm.Gen):
        name = term.name
        if name in tm.DEFINED:
            return _compile(data, tm.DEFINED[name], t_value)
        if name == "sigma":
            return _Perm(data.dim, [1, 0])
        if term == UNIT and not data.has_unit:
            raise MissingUnit("term uses eps but the structure has no unit")
        return _Stored(data.column(term))
    if isinstance(term, tm.IdK):
        return _ID
    if isinstance(term, tm.MuLit):
        return _build_mu(data, term.mat, t_value)
    if isinstance(term, tm.RelLit):
        return _Stored(rel_matrix(data, term.rel).columns().__getitem__)
    if isinstance(term, tm.Compose):
        if term.perm is not None:
            return _Perm(data.dim, list(term.perm))
        return _build_chain(data, term, t_value)
    if isinstance(term, tm.Tensor):
        return _build_tensor(data, term, t_value)
    if isinstance(term, tm.LinComb):
        parts = []
        for coeff, sub in term.parts:
            if coeff.degree() > 0 and t_value is None:
                raise RequiresEvaluation("term has symbolic t coefficients")
            scalar = coeff.evaluate(t_value) if t_value is not None else coeff.constant_value()
            if scalar:
                parts.append((scalar, _compile(data, sub, t_value)))
        return _LinComb(parts)
    raise TypeError(f"not a Term: {term!r}")


def _build_chain(data: FrobeniusData, term: Term, t_value):
    """A composition chain as one node over its compiled factors (``_fold``);
    a ``perm_term`` chain inside it is one factor, compiled as one ``_Perm``."""
    factors = []  # in the order they apply
    stack = [term]
    while stack:
        sub = stack.pop()
        if isinstance(sub, tm.Compose) and sub.perm is None:
            stack += (sub.left, sub.right)
        else:
            factors.append(sub)
    return _fold(data.dim, [_compile(data, sub, t_value) for sub in factors])


def _build_mu(data: FrobeniusData, mat, t_value):
    """A matrix literal straight from its matrix, with no expansion term.

    The split, transpose and add nodes are the compiled frame of the shape
    (``tm._mu_frame``), shared by every literal of that shape; between them
    one ``_Kron`` scales by the mu(a_ij) atoms in row-major order, as
    ``tm.mu_matrix_term`` lays them out, and the transpose folds into it
    (``_fold``), so the chain is split, scale and add.  A shape with no rows
    or no columns has no frame and compiles its expansion.
    """
    if not (mat.rows and mat.cols):
        return _build(data, tm.mu_matrix_term(mat), t_value)
    D = data.dim
    frame = tm._mu_frame(mat.rows, mat.cols)
    split, transpose, add = (_compile(data, sub, t_value) for sub in frame)
    scales = [_compile(data, tm.atom("mu", a), t_value) for a in mat.entries]
    scale = scales[0] if len(scales) == 1 else _Kron([(node, D, D) for node in scales])
    return _fold(D, [split, transpose, scale, add])


def _fold(dim: int, nodes):
    """One node for compiled factors that apply in the order given.

    Identity factors drop out.  Adjacent ``_Perm`` factors compose into one
    ``_Perm``, or into no node when they compose to the identity, and a lone
    one keeps its node.  A ``_Perm`` followed by a ``_Kron`` whose factors
    each take at most one strand folds into that node's weights
    (``_Kron.after``), so a matrix literal's transpose leaves no node.
    """
    out = []
    for node in nodes:
        if node is _ID:
            continue
        last = out[-1] if out else None
        if type(last) is _Perm and type(node) is _Perm:
            out.pop()
            p = [node.p[j] for j in last.p]
            if p != list(range(len(p))):
                out.append(_Perm(dim, p))
        elif type(last) is _Perm and type(node) is _Kron and all(
            dom <= dim for _, _, _, dom, _ in node.factors
        ):
            out[-1] = node.after(last)
        else:
            out.append(node)
    if not out:
        return _ID
    return out[0] if len(out) == 1 else _Chain(out)


def _build_tensor(data: FrobeniusData, term: Term, t_value):
    """A tensor chain as one node: a ``_Perm`` when every factor is a
    permutation or an identity, a ``_Whisker`` when every factor but one is
    an identity, else one ``_Kron`` over all of them."""
    D = data.dim
    subs = []  # the factors, left to right
    stack = [term]
    while stack:
        sub = stack.pop()
        if isinstance(sub, tm.Tensor):
            stack += (sub.right, sub.left)
        else:
            subs.append(sub)
    nodes = [_compile(data, sub, t_value) for sub in subs]
    if all(node is _ID or isinstance(node, _Perm) for node in nodes):
        p = []
        for sub, node in zip(subs, nodes):
            base = len(p)
            p += [base + j for j in (range(sub.dom) if node is _ID else node.p)]
        return _ID if p == list(range(len(p))) else _Perm(D, p)
    factors = [(node, D**sub.dom, D**sub.cod) for sub, node in zip(subs, nodes)]
    real = [k for k, (node, _, _) in enumerate(factors) if node is not _ID]
    if len(real) > 1:
        return _Kron(factors)
    (k,) = real
    node, mid, out = factors[k]
    lo = 1
    for _, dom, _ in factors[:k]:
        lo *= dom
    if isinstance(node, _Whisker):
        return _Whisker(node.node, lo * node.lo, node.mid, node.out)
    return _Whisker(node, lo, mid, out)


def term_eval(data: FrobeniusData, term: Term, t_value=None) -> QMat:
    """Evaluate a term to its D^cod x D^dom matrix, column by column.

    The root's columns stream into the matrix; the chain and combination
    nodes below it keep theirs for later calls on the structure.
    """
    node = _compile(data, term, t_value)
    column = node.compute if isinstance(node, _Kept) else node.col
    return QMat._trusted_columns(data.dim**term.cod, data.dim**term.dom, column)


@lru_cache(maxsize=tm.BUILDER_CACHE)
def hat_f_term(rel: Relation) -> Term:
    """The term hat_f evaluates, built once per relation.

    For the Row[-A I; A' 0] normal form, (id(k) @ z*^{rows of A'}) . mu([A; A'])
    scales by the stacked matrix, then zero-tests the A' outputs.  A relation
    that is not codomain-surjective has no normal form: NotRelInfty.
    """
    a, ap = rel_infty_normal_form(rel)
    cap = tm.t_tensor(tm.t_id(rel.k), tm.t_power(tm.atom("z*"), ap.rows))
    return tm.t_compose(cap, tm.MuLit(a.vstack(ap)))


def hat_f(data: FrobeniusData, rel: Relation) -> QMat:
    """``hat_f_term(rel)`` evaluated, and cached on the structure by relation."""
    out = data._realized.get(rel)
    if out is None:
        term = hat_f_term(rel)
        check_steps(data.dim, [term], f"hat_f of a [{rel.s}] -> [{rel.k}] relation")
        out = data._realized[rel] = term_eval(data, term)
    return out


def rel_matrix(data: FrobeniusData, rel: Relation) -> QMat:
    """Universal image of a basis arrow in this structure.

    Codomain-surjective relations go through ``hat_f``, whose normal form
    decides surjectivity; anything else through the generator decomposition
    of the pairing form, which uses the unit (MissingUnit without one).
    """
    try:
        return hat_f(data, rel)
    except NotRelInfty:
        term = tm.decompose_generators(rel)
        check_steps(data.dim, [term], f"the unit path of a [{rel.s}] -> [{rel.k}] relation")
        return term_eval(data, term)


# -- the axiom checklist ----------------------------------------------------


def frobenius_axiom_terms(field: Fq):
    """The defining axioms of a field-linear Frobenius space, as term pairs
    handed out one at a time: 2q^2 + 4q + 26 of them."""
    g = tm.atom
    I1 = tm.t_id(1)
    yield from [
        ("Fr1 m associative", tm.t_compose(g("m"), tm.t_tensor(g("m"), I1)),
         tm.t_compose(g("m"), tm.t_tensor(I1, g("m")))),
        ("Fr1 m commutative", tm.t_compose(g("m"), g("sigma")), g("m")),
        ("Fr1 unit left", tm.t_compose(g("m"), tm.t_tensor(g("eps"), I1)), I1),
        ("Fr1 unit right", tm.t_compose(g("m"), tm.t_tensor(I1, g("eps"))), I1),
        ("Fr1 m* coassociative", tm.t_compose(tm.t_tensor(g("m*"), I1), g("m*")),
         tm.t_compose(tm.t_tensor(I1, g("m*")), g("m*"))),
        ("Fr1 m* cocommutative", tm.t_compose(g("sigma"), g("m*")), g("m*")),
        ("Fr1 counit left", tm.t_compose(tm.t_tensor(g("eps*"), I1), g("m*")), I1),
        ("Fr1 counit right", tm.t_compose(tm.t_tensor(I1, g("eps*")), g("m*")), I1),
        ("Fr2 frobenius left", tm.t_compose(g("m*"), g("m")),
         tm.t_compose(tm.t_tensor(I1, g("m")), tm.t_tensor(g("m*"), I1))),
        ("Fr2 frobenius right", tm.t_compose(g("m*"), g("m")),
         tm.t_compose(tm.t_tensor(g("m"), I1), tm.t_tensor(I1, g("m*")))),
        ("Fr2 speciality", tm.t_compose(g("m"), g("m*")), I1),
        ("Lin1 plus associative", tm.t_compose(g("plus"), tm.t_tensor(g("plus"), I1)),
         tm.t_compose(g("plus"), tm.t_tensor(I1, g("plus")))),
        ("Lin1 plus commutative", tm.t_compose(g("plus"), g("sigma")), g("plus")),
        ("Lin2 zero left", tm.t_compose(g("plus"), tm.t_tensor(g("z"), I1)), I1),
        ("Lin2 zero right", tm.t_compose(g("plus"), tm.t_tensor(I1, g("z"))), I1),
        ("Lin3 mu(1) = Id", g("mu", 1), I1),
        ("Lin3 mu(0) = z . eps*", g("mu", 0), tm.t_compose(g("z"), g("eps*"))),
    ]
    for a in field.elements():
        for b in field.elements():
            yield (
                f"Lin3 mu({a}).mu({b}) = mu(ab)",
                tm.t_compose(g("mu", a), g("mu", b)),
                g("mu", field.mul(a, b)),
            )
            yield (
                f"Lin4 mu({a}+{b}) = plus.(mu@mu).m*",
                g("mu", field.add(a, b)),
                tm.t_compose(g("plus"), tm.t_tensor(g("mu", a), g("mu", b)), g("m*")),
            )
    for a in field.elements():
        yield (
            f"Lin4 mu({a}) distributes",
            tm.t_compose(g("mu", a), g("plus")),
            tm.t_compose(g("plus"), tm.t_tensor(g("mu", a), g("mu", a))),
        )
        if a != 0:
            yield (
                f"Rel1 m*.mu({a})",
                tm.t_compose(g("m*"), g("mu", a)),
                tm.t_compose(tm.t_tensor(g("mu", a), g("mu", a)), g("m*")),
            )
            yield f"Rel1 eps*.mu({a})", tm.t_compose(g("eps*"), g("mu", a)), g("eps*")
            yield (
                f"Rel1 mu({a}).m",
                tm.t_compose(g("mu", a), g("m")),
                tm.t_compose(g("m"), tm.t_tensor(g("mu", a), g("mu", a))),
            )
    yield from [
        ("Rel2 m*.z = z @ z", tm.t_compose(g("m*"), g("z")), tm.t_tensor(g("z"), g("z"))),
        ("Rel2 eps*.z = Id", tm.t_compose(g("eps*"), g("z")), tm.t_id(0)),
        ("Rel2 m.(z@z) = z", tm.t_compose(g("m"), tm.t_tensor(g("z"), g("z"))), g("z")),
        ("Rel3 m*.plus", tm.t_compose(g("m*"), g("plus")),
         tm.t_compose(tm.t_tensor(g("plus"), g("plus")),
                      tm.t_tensor(I1, g("sigma"), I1),
                      tm.t_tensor(g("m*"), g("m*")))),
        ("Rel3 eps*.plus", tm.t_compose(g("eps*"), g("plus")),
         tm.t_tensor(g("eps*"), g("eps*"))),
        ("Rel4 cancellation",
         tm.t_compose(g("m"), tm.t_tensor(g("plus"), g("plus")),
                      tm.t_tensor(I1, g("m*"), I1)),
         tm.t_compose(g("plus"), tm.t_tensor(I1, g("m")), tm.t_tensor(g("sigma"), I1))),
        ("snake left",
         tm.t_compose(tm.t_tensor(g("ev"), I1), tm.t_tensor(I1, g("coev"))), I1),
        ("snake right",
         tm.t_compose(tm.t_tensor(I1, g("ev")), tm.t_tensor(g("coev"), I1)), I1),
        ("ev = eps* . m", g("ev"), tm.DEFINED["ev"]),
        ("coev = m* . eps", g("coev"), tm.DEFINED["coev"]),
        ("z* = ev . (Id @ z)", g("z*"), tm.DEFINED["z*"]),
        ("eps = (eps* @ Id) . coev", g("eps"),
         tm.t_compose(tm.t_tensor(g("eps*"), I1), g("coev"))),
    ]


def first_difference(data: FrobeniusData, lhs: Term, rhs: Term):
    """The first (row, column) cell where the two terms differ on the structure, or None.

    A chain or combination node that the sides share, with each other or
    with terms evaluated before, computes each column once (``term_eval``).
    """
    return term_eval(data, lhs).first_difference(term_eval(data, rhs))


def check_axioms(data: FrobeniusData, pairs) -> list:
    """(name, first differing cell or None) for each axiom pair on the structure.

    ``pairs`` are those ``frobenius_axiom_terms(data.field)`` hands out.
    Without a unit, a pair is skipped when compiling it raises MissingUnit
    (eps, or coev through its definition); such a pair uses the unit on its
    left side, which is compiled first, so it forms no map.
    """
    results = []
    for name, lhs, rhs in pairs:
        with suppress(MissingUnit):
            results.append((name, first_difference(data, lhs, rhs)))
    return results
