"""Structure checker for concrete field-linear (semi-)Frobenius spaces.

A candidate structure is a tuple of exact rational matrices: merge m,
split m*, counit eps*, vector addition plus, zero vector z, one scaling
map per field element, and optionally the unit eps.  The axioms are one
list of generator term pairs (``frobenius_axiom_terms``), checked formally
by the suites and on a structure by ``check_axioms``, which evaluates both
sides of each pair and names the first cell where they differ
(``first_difference``).  When the unit is absent the candidate is checked
as a semi-Frobenius space: every pair that uses eps or coev is skipped, so
no unit-dependent map is ever formed.

Every map formed on a structure comes from one evaluator, ``term_eval``.
Tensor powers are interpreted by the library's Kronecker indexing (first
factor least significant).  A term is evaluated in two tiers.  It is
compiled once per structure into a tree of nodes cached on the structure
by term: stored maps and relation literals hold their columns, ev, coev
and z* compile their definitions (``DEFINED``), a matrix literal points at
the one compiled expansion of its matrix, and other composites hold their
compiled children, so subterms shared between terms are compiled once.
A composition chain is one node over its factors, in which each run of
two or more permutation factors (sigma, identities, and their tensors and
composites) is one ``_Perm``: it maps the base-D digits of an index and
holds no matrix.  A tensor chain is one node too: a whisker over its one
factor that is not an identity, else one flat ``_Kron`` over all its
factors.  Each call then asks the root for basis columns; every node
memoizes the columns it computes for that call only, so wide intermediate
tensor powers never materialize as full matrices and no column outlives
its call.  ``hat_f`` evaluates the one term of a relation's normal form
and caches the result on the structure by relation.
"""

from __future__ import annotations

from itertools import groupby

from . import terms as tm
from .errors import (
    MissingUnit,
    RequiresEvaluation,
    ShapeMismatch,
    TooLarge,
)
from .field import Fq
from .qmat import QMat
from .relations import Relation, is_rel_infty, rel_infty_normal_form
from .terms import Term

# The standard target's largest map, plus, has q^(2n) cells; more are refused.
STANDARD_GUARD = 2**12
# frobenius_axiom_terms has 2q^2 + 4q + 26 pairs; it refuses to build more.
AXIOM_PAIR_GUARD = 2**12
# hat_f evaluates the expansion of a rows x cols matrix literal column by
# column: D^cols columns, each through rows*cols strands (cols when rows is
# 0) whose indices carry as many base-D digits, so D^cols * strands^2 steps;
# more are refused.  The bound was set at 0.4 us a step (2-vCPU x86-64 VM,
# Python 3.11).  With permutation runs folded, a column costs about linear
# in strands, so the count overstates the work; re-deriving the bound waits
# for a hat_f micro workload in perfbench.
HAT_F_GUARD = 2**22


# The maps the axiom list defines by the stored ones; a term that uses one
# is compiled through its definition.
DEFINED = {
    "ev": tm.t_compose(tm.Gen("eps*"), tm.Gen("m")),
    "coev": tm.t_compose(tm.Gen("m*"), tm.Gen("eps")),
    "z*": tm.t_compose(tm.Gen("ev"), tm.t_tensor(tm.t_id(1), tm.Gen("z"))),
}
# generator name -> the FrobeniusData attribute that stores its matrix
STORED = {"m": "m", "m*": "m_star", "eps*": "eps_star", "plus": "plus", "z": "z", "eps": "eps"}


def hat_f_guard(dim: int, rows: int, cols: int, source: str = "hat_f"):
    """TooLarge if hat_f of a rows x cols normal form at D = dim is too much work."""
    strands = max(rows, 1) * cols
    # dim >= 2, so cols past the guard's bit length already gives too many columns
    if cols > HAT_F_GUARD.bit_length() or dim**cols * strands**2 > HAT_F_GUARD:
        raise TooLarge(
            f"{source}: a {rows}x{cols} normal form at D = {dim} takes "
            f"D^{cols} * {strands}^2 evaluation steps, more than {HAT_F_GUARD}"
        )


class FrobeniusData:
    """Concrete structure maps on a D-dimensional space.

    The maps are fixed once built: compiled terms and ``hat_f`` results are
    cached on the structure, so a cached value never goes stale.
    """

    __slots__ = (
        "field", "dim", "m", "m_star", "eps_star", "plus", "z", "mu", "eps", "_compiled",
        "_realized",
    )

    def __init__(self, field: Fq, dim: int, m, m_star, eps_star, plus, z, mu, eps=None):
        self.field = field
        self.dim = dim
        self.m = m
        self.m_star = m_star
        self.eps_star = eps_star
        self.plus = plus
        self.z = z
        self.mu = dict(mu)
        self.eps = eps
        # t_value -> term -> compiled node (see _compile)
        self._compiled: dict = {}
        # relation -> its hat_f matrix
        self._realized: dict = {}
        shapes = {
            "m": (self.m, dim, dim * dim),
            "m_star": (self.m_star, dim * dim, dim),
            "eps_star": (self.eps_star, 1, dim),
            "plus": (self.plus, dim, dim * dim),
            "z": (self.z, dim, 1),
        }
        if eps is not None:
            shapes["eps"] = (self.eps, dim, 1)
        for name, (mat, rows, cols) in shapes.items():
            if (mat.rows, mat.cols) != (rows, cols):
                raise ShapeMismatch(f"{name} must be {rows}x{cols}, got {mat.rows}x{mat.cols}")
        for a in field.elements():
            if a not in self.mu:
                raise ShapeMismatch(f"mu is missing the scaling map for {a}")
            if (self.mu[a].rows, self.mu[a].cols) != (dim, dim):
                raise ShapeMismatch(f"mu[{a}] must be {dim}x{dim}")

    @property
    def has_unit(self) -> bool:
        return self.eps is not None

    def swap(self) -> QMat:
        d = self.dim
        return QMat(d * d, d * d, {(j + d * i, i + d * j): 1 for i in range(d) for j in range(d)})


def standard_target(field: Fq, n: int) -> FrobeniusData:
    """The structure on the free vector space over F_q^n basis tuples."""
    q = field.q
    # q >= 2, so 2n past the guard's bit length already gives too many cells
    if 2 * n > STANDARD_GUARD.bit_length() or q ** (2 * n) > STANDARD_GUARD:
        raise TooLarge(
            f"the standard target at q = {field}, n = {n} has q^(2n) plus cells, "
            f"more than {STANDARD_GUARD}"
        )
    dim = q**n

    def vec_add(a: int, b: int) -> int:
        da = [(a // q**i) % q for i in range(n)]
        db = [(b // q**i) % q for i in range(n)]
        return sum(field.add(x, y) * q**i for i, (x, y) in enumerate(zip(da, db)))

    def vec_scale(c: int, a: int) -> int:
        da = [(a // q**i) % q for i in range(n)]
        return sum(field.mul(c, x) * q**i for i, x in enumerate(da))

    m = QMat(dim, dim * dim, {(v, v + dim * v): 1 for v in range(dim)})
    m_star = QMat(dim * dim, dim, {(v + dim * v, v): 1 for v in range(dim)})
    eps_star = QMat(1, dim, {(0, v): 1 for v in range(dim)})
    eps = QMat(dim, 1, {(v, 0): 1 for v in range(dim)})
    plus = QMat(
        dim, dim * dim, {(vec_add(v, w), v + dim * w): 1 for v in range(dim) for w in range(dim)}
    )
    z = QMat(dim, 1, {(0, 0): 1})
    mu = {
        a: QMat(dim, dim, {(vec_scale(a, v), v): 1 for v in range(dim)})
        for a in field.elements()
    }
    return FrobeniusData(field, dim, m, m_star, eps_star, plus, z, mu, eps)


# -- compiled term evaluation ---------------------------------------------


class _Cols:
    """A fixed matrix held as its columns: an atom or a relation literal."""

    __slots__ = ("cols",)

    def __init__(self, mat: QMat):
        cols = [{} for _ in range(mat.cols)]
        for (r, c), v in mat.data.items():
            cols[c][r] = v
        self.cols = cols

    def col(self, i: int, memo: dict) -> dict:
        return self.cols[i]


class _Id:
    """id(k) for any k."""

    __slots__ = ()

    def col(self, i: int, memo: dict) -> dict:
        return {i: 1}


_ID = _Id()


class _Chain:
    """A composite f_n . ... . f_1, flattened; the factors apply in order."""

    __slots__ = ("first", "rest")

    def __init__(self, factors):
        self.first = factors[0]
        self.rest = factors[1:]

    def col(self, i: int, memo: dict) -> dict:
        seen = memo.get(self)
        if seen is None:
            seen = memo[self] = {}
        elif i in seen:
            return seen[i]
        vec = self.first.col(i, memo)
        for node in self.rest:
            vec = _apply(node, vec, memo)
        seen[i] = vec
        return vec


class _Kron:
    """A tensor chain f_1 @ ... @ f_n of two or more factors, as one node.

    The first factor is the least significant digit block of an index; an
    identity factor is held as ``_ID``.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors  # (node, D^dom, D^cod) per factor

    def col(self, i: int, memo: dict) -> dict:
        seen = memo.get(self)
        if seen is None:
            seen = memo[self] = {}
        elif i in seen:
            return seen[i]
        rest = i
        row, val, scale = 0, 1, 1
        wide = None  # the column so far, once a factor's column has other than one entry
        for node, dom, cod in self.factors:
            rest, j = divmod(rest, dom)
            part = node.col(j, memo)
            if wide is None and len(part) == 1:
                ((r, v),) = part.items()
                row += scale * r
                val *= v
            else:
                if wide is None:
                    wide = {row: val}
                wide = {r0 + scale * r: v0 * v for r, v in part.items() for r0, v0 in wide.items()}
            scale *= cod
        out = seen[i] = {row: val} if wide is None else wide
        return out


class _Perm:
    """A strand permutation: input strand j goes to output strand p[j].

    Maps the base-D digits of an index and holds no matrix.
    """

    __slots__ = ("dim", "weights")

    def __init__(self, dim: int, p):
        self.dim = dim
        self.weights = [dim**j for j in p]

    def col(self, i: int, memo: dict) -> dict:
        d = self.dim
        out = 0
        for w in self.weights:
            i, digit = divmod(i, d)
            out += digit * w
        return {out: 1}


class _Whisker:
    """id(a) @ node @ id(b): the node acting on the middle strands."""

    __slots__ = ("node", "lo", "mid", "out")

    def __init__(self, node, lo: int, mid: int, out: int):
        self.node = node
        self.lo = lo  # D^a
        self.mid = mid  # D^dom and D^cod of the node
        self.out = out

    def col(self, i: int, memo: dict) -> dict:
        lo, rest = self.lo, i // self.lo
        base = i % lo
        hi = lo * self.out * (rest // self.mid)
        return {base + lo * r + hi: v for r, v in self.node.col(rest % self.mid, memo).items()}


class _LinComb:
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts  # (nonzero scalar, node) pairs

    def col(self, i: int, memo: dict) -> dict:
        seen = memo.get(self)
        if seen is None:
            seen = memo[self] = {}
        elif i in seen:
            return seen[i]
        acc: dict[int, object] = {}
        for scalar, node in self.parts:
            for r, v in node.col(i, memo).items():
                acc[r] = acc.get(r, 0) + scalar * v
        out = seen[i] = {r: v for r, v in acc.items() if v}
        return out


def _apply(node, vec: dict, memo: dict) -> dict:
    """node applied to a sparse vector; may return one of node's own columns."""
    if len(vec) == 1:
        ((j, c),) = vec.items()
        col = node.col(j, memo)
        return col if c == 1 else {r: c * v for r, v in col.items()}
    acc: dict[int, object] = {}
    for j, c in vec.items():
        for r, v in node.col(j, memo).items():
            acc[r] = acc.get(r, 0) + c * v
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
        if name in DEFINED:
            return _compile(data, DEFINED[name], t_value)
        if name == "mu":
            return _Cols(data.mu[term.a])
        if name == "sigma":
            return _Cols(data.swap())
        mat = getattr(data, STORED[name])
        if mat is None:
            raise MissingUnit("term uses eps but the structure has no unit")
        return _Cols(mat)
    if isinstance(term, tm.IdK):
        return _ID
    if isinstance(term, tm.MuLit):
        # cached under the literal only: the expansion is a fresh term
        return _build(data, tm.mu_matrix_term(term.mat), t_value)
    if isinstance(term, tm.RelLit):
        return _Cols(rel_matrix(data, term.rel))
    if isinstance(term, tm.Compose):
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


def _strand_perm(term: Term):
    """Where a term built from sigma and identities sends each input strand, or None.

    Walks the term without recursion: a composite inside it may be deep.
    """
    done = []  # the permutations of the finished subterms, in walk order
    stack = [(term, False)]
    while stack:
        sub, ready = stack.pop()
        if isinstance(sub, tm.IdK):
            done.append(list(range(sub.k)))
        elif isinstance(sub, tm.Gen) and sub.name == "sigma":
            done.append([1, 0])
        elif not isinstance(sub, (tm.Compose, tm.Tensor)):
            return None
        elif not ready:
            stack += ((sub, True), (sub.right, False), (sub.left, False))
        else:
            right = done.pop()
            left = done.pop()
            if isinstance(sub, tm.Tensor):
                done.append(left + [len(left) + j for j in right])
            else:
                done.append([left[j] for j in right])
    return done[0]


def _build_chain(data: FrobeniusData, term: Term, t_value):
    """A composition chain as one node over its factors.

    Each run of two or more permutation factors (``_strand_perm``) is folded
    into one ``_Perm``, or into nothing when the run is the identity; a
    lone one is compiled as it stands.
    """
    factors = []  # in the order they apply
    stack = [term]
    while stack:
        sub = stack.pop()
        if isinstance(sub, tm.Compose):
            stack += (sub.left, sub.right)
        else:
            factors.append(sub)
    nodes = []
    runs = groupby(((sub, _strand_perm(sub)) for sub in factors), key=lambda f: f[1] is not None)
    for is_perm, run in runs:
        run = list(run)
        if not is_perm or len(run) == 1:
            nodes += [_compile(data, sub, t_value) for sub, _ in run]
            continue
        p = run[0][1]
        for _, then in run[1:]:
            p = [then[j] for j in p]
        if p != list(range(len(p))):
            nodes.append(_Perm(data.dim, p))
    nodes = [node for node in nodes if node is not _ID]
    if not nodes:
        return _ID
    return nodes[0] if len(nodes) == 1 else _Chain(nodes)


def _build_tensor(data: FrobeniusData, term: Term, t_value):
    """A tensor chain as one node: a ``_Whisker`` when every factor but one
    is an identity, else one ``_Kron`` over all of them."""
    D = data.dim
    factors = []  # (node, D^dom, D^cod), left to right
    stack = [term]
    while stack:
        sub = stack.pop()
        if isinstance(sub, tm.Tensor):
            stack += (sub.right, sub.left)
        else:
            factors.append((_compile(data, sub, t_value), D**sub.dom, D**sub.cod))
    real = [k for k, (node, _, _) in enumerate(factors) if node is not _ID]
    if not real:
        return _ID
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

    Column results of every node are memoized for this call only.
    """
    node = _compile(data, term, t_value)
    memo: dict = {}
    out = {}
    for c in range(data.dim**term.dom):
        for r, v in node.col(c, memo).items():
            out[(r, c)] = v
    return QMat(data.dim**term.cod, data.dim**term.dom, out)


def hat_f(data: FrobeniusData, rel: Relation) -> QMat:
    """Generator-level realization of a codomain-surjective relation.

    Uses the Row[-A I; A' 0] normal form: the term
    (id(k) @ z*^{rows of A'}) . mu([A; A']) scales by the stacked matrix,
    then zero-tests the A' outputs.  The result is cached on the structure
    by relation.  A relation that is not codomain-surjective has no normal
    form: NotRelInfty.
    """
    out = data._realized.get(rel)
    if out is None:
        a, ap = rel_infty_normal_form(rel)
        stacked = a.vstack(ap)
        hat_f_guard(data.dim, stacked.rows, stacked.cols)
        cap = tm.t_tensor(tm.t_id(rel.k), tm.t_power(tm.Gen("z*"), ap.rows))
        out = data._realized[rel] = term_eval(data, tm.t_compose(cap, tm.MuLit(stacked)))
    return out


def rel_matrix(data: FrobeniusData, rel: Relation) -> QMat:
    """Universal image of a basis arrow in this structure.

    Codomain-surjective relations go through the unit-free realization;
    anything else needs the unit and goes through the generator
    decomposition of the pairing form.
    """
    if is_rel_infty(rel):
        return hat_f(data, rel)
    if data.eps is None:
        raise MissingUnit(
            "a relation that does not surject onto its codomain needs the unit"
        )
    from .category import decompose_generators

    return term_eval(data, decompose_generators(rel))


# -- the axiom checklist ----------------------------------------------------


def frobenius_axiom_terms(field: Fq):
    """The defining axioms of a field-linear Frobenius space, as term pairs."""
    q = field.q
    count = 2 * q * q + 4 * q + 26
    if count > AXIOM_PAIR_GUARD:
        raise TooLarge(f"F_{field} has {count} axiom pairs, more than {AXIOM_PAIR_GUARD}")
    g = tm.Gen
    I1 = tm.t_id(1)
    pairs = [
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
            pairs.append((
                f"Lin3 mu({a}).mu({b}) = mu(ab)",
                tm.t_compose(g("mu", a), g("mu", b)),
                g("mu", field.mul(a, b)),
            ))
            pairs.append((
                f"Lin4 mu({a}+{b}) = plus.(mu@mu).m*",
                g("mu", field.add(a, b)),
                tm.t_compose(g("plus"), tm.t_tensor(g("mu", a), g("mu", b)), g("m*")),
            ))
    for a in field.elements():
        pairs.append((
            f"Lin4 mu({a}) distributes",
            tm.t_compose(g("mu", a), g("plus")),
            tm.t_compose(g("plus"), tm.t_tensor(g("mu", a), g("mu", a))),
        ))
        if a != 0:
            pairs.append((
                f"Rel1 m*.mu({a})",
                tm.t_compose(g("m*"), g("mu", a)),
                tm.t_compose(tm.t_tensor(g("mu", a), g("mu", a)), g("m*")),
            ))
            pairs.append((f"Rel1 eps*.mu({a})", tm.t_compose(g("eps*"), g("mu", a)), g("eps*")))
            pairs.append((
                f"Rel1 mu({a}).m",
                tm.t_compose(g("mu", a), g("m")),
                tm.t_compose(g("m"), tm.t_tensor(g("mu", a), g("mu", a))),
            ))
    pairs += [
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
        ("ev = eps* . m", g("ev"), DEFINED["ev"]),
        ("coev = m* . eps", g("coev"), DEFINED["coev"]),
        ("z* = ev . (Id @ z)", g("z*"), DEFINED["z*"]),
        ("eps = (eps* @ Id) . coev", g("eps"),
         tm.t_compose(tm.t_tensor(g("eps*"), I1), g("coev"))),
    ]
    return pairs


def _uses_unit(term: Term) -> bool:
    """Whether the term contains eps or coev, the maps built from the unit."""
    stack = [term]
    while stack:
        sub = stack.pop()
        if isinstance(sub, tm.Gen) and sub.name in ("eps", "coev"):
            return True
        if isinstance(sub, (tm.Compose, tm.Tensor)):
            stack += (sub.left, sub.right)
    return False


def first_difference(data: FrobeniusData, lhs: Term, rhs: Term):
    """The first (row, column) cell where the two terms differ on the structure, or None."""
    a, b = term_eval(data, lhs), term_eval(data, rhs)
    for key in sorted(a.data.keys() | b.data.keys()):
        if a.data.get(key, 0) != b.data.get(key, 0):
            return key
    return None


def check_axioms(data: FrobeniusData) -> list:
    """(name, first differing cell or None) for each axiom pair on the structure.

    Without a unit, each pair with eps or coev on either side is skipped, so
    no unit-dependent map is formed.
    """
    return [
        (name, first_difference(data, lhs, rhs))
        for name, lhs, rhs in frobenius_axiom_terms(data.field)
        if data.has_unit or not (_uses_unit(lhs) or _uses_unit(rhs))
    ]
