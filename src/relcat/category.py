"""The formal interpolation category on subspace relations.

A ``Morphism`` [s] -> [k] is a finitely supported map from relations to
polynomials in t: composing two basis arrows scales the composite relation
by t to the power of the defect, and everything else is Q[t]-bilinear.
Substituting an exact rational for t is a ring map Q[t] -> Q, so it
commutes with every operation here: ``Morphism.evaluate`` applies it once
to a finished result.  ``compose`` and ``tensor`` build terms that are
typed by construction and wrap them unchecked (``Morphism._trusted``), and
so do ``Morphism.scale`` and ``Morphism.evaluate``; a product of nonzero
coefficients is nonzero, so only a sum, a zero scalar or a value of 0 can
leave a zero to drop.

Morphisms are immutable.  ``identity``, ``symmetry``, ``ev_bar``,
``coev_bar`` and ``generator`` return one shared instance per (field,
arguments) from a bounded cache, the arity-indexed four only for arrows
of at most ``GENERATOR_CELLS`` basis cells, and every basis arrow built by
``Morphism.from_relation`` carries the shared unit ``PolyQ.one()``; a
product with that unit is the other factor itself, with no arithmetic.

Besides the category structure (compose, tensor, identities, symmetries)
this module provides duals by snake composites, the categorical trace and
Gram pairing, the pairing-form calculus (phi, the T isomorphism and the
``ast`` product) and the orbit basis change.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps

from .errors import ArityMismatch, FieldMismatch
from .field import Fq
from .matrix import MatFq, enumerate_subspaces
from .poly import PolyQ
from .relations import (
    Relation,
    coev_bar_relation,
    ev_bar_relation,
    generator_relation,
    identity_relation,
    mu_relation,
    permutation_relation,
    product,
    sigma_relation,
    star,
)

# the coefficient of a basis arrow; compose and tensor recognize it by identity
_ONE = PolyQ.one()


class Morphism:
    """Formal Hom([s],[k]) element: map Relation -> PolyQ, zero-pruned."""

    __slots__ = ("field", "s", "k", "terms")

    def __init__(self, field: Fq, s: int, k: int, terms=None):
        data = {}
        for rel, coeff in (terms or {}).items():
            if rel.field != field or (rel.s, rel.k) != (s, k):
                raise ArityMismatch(f"term {rel!r} does not fit Hom([{s}],[{k}])")
            if not isinstance(coeff, PolyQ):
                coeff = PolyQ.const(coeff)
            if not coeff.is_zero():
                data[rel] = coeff
        self.field = field
        self.s = s
        self.k = k
        self.terms = data

    @classmethod
    def _trusted(cls, field: Fq, s: int, k: int, terms: dict) -> "Morphism":
        """Wrap a dict of Hom([s],[k]) relation -> nonzero PolyQ as it stands."""
        out = cls.__new__(cls)
        out.field, out.s, out.k, out.terms = field, s, k, terms
        return out

    @classmethod
    def from_relation(cls, rel: Relation, coeff=_ONE) -> "Morphism":
        if not isinstance(coeff, PolyQ):
            coeff = PolyQ.const(coeff)
        return cls._trusted(rel.field, rel.s, rel.k, {rel: coeff} if coeff.coeffs else {})

    @classmethod
    def zero(cls, field: Fq, s: int, k: int) -> "Morphism":
        return cls(field, s, k)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.field == other.field
            and (self.s, self.k) == (other.s, other.k)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.s, self.k, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda it: it[0].sort_key())

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for rel, coeff in self.sorted_terms():
            c = str(coeff)
            if c == "1":
                parts.append(rel.to_text())
            elif any(op in c[1:] for op in "+-") or "*" in c:
                parts.append(f"({c}) * {rel.to_text()}")
            else:
                parts.append(f"{c} * {rel.to_text()}")
        return " + ".join(parts)

    __repr__ = to_text

    def add(self, other: "Morphism") -> "Morphism":
        if (self.field, self.s, self.k) != (other.field, other.s, other.k):
            raise ArityMismatch("sum of morphisms with different types")
        out = dict(self.terms)
        for rel, c in other.terms.items():
            prev = out.get(rel)
            out[rel] = c if prev is None else prev + c
        return Morphism._trusted(self.field, self.s, self.k, _nonzero(out))

    def scale(self, coeff) -> "Morphism":
        if not isinstance(coeff, PolyQ):
            coeff = PolyQ.const(coeff)
        if coeff is _ONE:
            return self
        # a product of nonzero polynomials is nonzero, so only a zero factor leaves zeros
        terms = {r: _times(c, coeff) for r, c in self.terms.items()} if coeff.coeffs else {}
        return Morphism._trusted(self.field, self.s, self.k, terms)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def evaluate(self, value) -> "Morphism":
        """Substitute the exact rational value for t in every coefficient; a
        coefficient that comes out 0 is dropped."""
        values = ((r, c.evaluate(value)) for r, c in self.terms.items())
        return Morphism._trusted(
            self.field, self.s, self.k, {r: PolyQ.const(v) for r, v in values if v}
        )


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g: for f: [k]->[l] and g: [s]->[k], the composite [s]->[l]."""
    if f.field != g.field:
        raise FieldMismatch("compose over different fields")
    if f.s != g.k:
        raise ArityMismatch(f"compose [{g.s}]->[{g.k}] then [{f.s}]->[{f.k}]")
    out: dict[Relation, PolyQ] = {}
    for rg, cg in g.terms.items():
        for rf, cf in f.terms.items():
            sr, d = star(rg, rf)
            coeff = _times(cf, cg)
            if d:
                coeff = _times(coeff, PolyQ.t_power(d))
            prev = out.get(sr)
            out[sr] = coeff if prev is None else prev + coeff
    return Morphism._trusted(f.field, g.s, f.k, _nonzero(out))


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """f ⊗ g with f on the left strands."""
    if f.field != g.field:
        raise FieldMismatch("tensor over different fields")
    out: dict[Relation, PolyQ] = {}
    for rf, cf in f.terms.items():
        for rg, cg in g.terms.items():
            pr = product(rf, rg)
            coeff = _times(cf, cg)
            prev = out.get(pr)
            out[pr] = coeff if prev is None else prev + coeff
    return Morphism._trusted(f.field, f.s + g.s, f.k + g.k, _nonzero(out))


def _times(a: PolyQ, b: PolyQ) -> PolyQ:
    """a * b; either factor itself when the other is the shared unit."""
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return a * b


def _nonzero(terms: dict) -> dict:
    # a product of nonzero polynomials is nonzero, so only a sum leaves a zero
    return {rel: c for rel, c in terms.items() if c.coeffs}


# Entries each generator-morphism cache keeps; the least recently used one is
# dropped past it.
GENERATOR_CACHE = 256
# The arity-indexed builders cache only arrows of at most this many basis
# cells; id(512) alone holds 3.75 MB, so a larger arrow is built per call.
GENERATOR_CELLS = 2**10


def _cached_when_small(build):
    """build(field, *arities), cached when its relation is small.

    The relation of each arity-indexed builder has a rows and 2a columns, a
    the sum of the arities; within GENERATOR_CELLS cells the arrow is one
    shared instance per arguments, and past it one is built per call.
    """
    cached = lru_cache(maxsize=GENERATOR_CACHE)(build)

    @wraps(build)
    def get(field: Fq, *arities: int) -> Morphism:
        if 2 * sum(arities) ** 2 <= GENERATOR_CELLS:
            return cached(field, *arities)
        return build(field, *arities)

    return get


@_cached_when_small
def identity(field: Fq, k: int) -> Morphism:
    return Morphism.from_relation(identity_relation(field, k))


@_cached_when_small
def symmetry(field: Fq, l: int, k: int) -> Morphism:
    return Morphism.from_relation(sigma_relation(field, l, k))


def permutation(field: Fq, p) -> Morphism:
    return Morphism.from_relation(permutation_relation(field, p))


def mu_morphism(a: MatFq) -> Morphism:
    return Morphism.from_relation(mu_relation(a))


@_cached_when_small
def ev_bar(field: Fq, k: int) -> Morphism:
    return Morphism.from_relation(ev_bar_relation(field, k))


@_cached_when_small
def coev_bar(field: Fq, k: int) -> Morphism:
    return Morphism.from_relation(coev_bar_relation(field, k))


@lru_cache(maxsize=GENERATOR_CACHE)
def generator(field: Fq, name: str, a: int | None = None) -> Morphism:
    return Morphism.from_relation(generator_relation(field, name, a))


def dual(f: Morphism) -> Morphism:
    """The snake transpose [k] -> [s] of f: [s] -> [k].

    (Id ⊗ ev̄_k) ∘ (Id ⊗ f ⊗ Id) ∘ (coev̄_s ⊗ Id); all t-bookkeeping goes
    through compose, so coefficients stay exact.
    """
    F, s, k = f.field, f.s, f.k
    top = tensor(identity(F, s), ev_bar(F, k))
    mid = tensor(tensor(identity(F, s), f), identity(F, k))
    bottom = tensor(coev_bar(F, s), identity(F, k))
    return compose(top, compose(mid, bottom))


def as_scalar(f: Morphism) -> PolyQ:
    """The coefficient of an endomorphism of [0]."""
    if (f.s, f.k) != (0, 0):
        raise ArityMismatch("not an endomorphism of [0]")
    if not f.terms:
        return PolyQ.zero()
    (coeff,) = f.terms.values()
    return coeff


def trace(h: Morphism) -> PolyQ:
    """Categorical trace of h: [s] -> [s], via the strandwise pairing."""
    if h.s != h.k:
        raise ArityMismatch("trace needs equal arities")
    F, s = h.field, h.s
    loop = compose(ev_bar(F, s), compose(tensor(h, identity(F, s)), coev_bar(F, s)))
    return as_scalar(loop)


def gram(field: Fq, s: int, k: int):
    """Gram matrix of the relation basis under trace(dual(f_Rj) ∘ f_Ri).

    Returns (relations, matrix) with the relations in canonical
    enumeration order and the matrix a list of PolyQ rows.
    """
    rels = [Relation._trusted(field, s, k, b) for b in enumerate_subspaces(field, s + k)]
    mats = []
    duals = [dual(Morphism.from_relation(r)) for r in rels]
    for ri in rels:
        fi = Morphism.from_relation(ri)
        mats.append([trace(compose(dj, fi)) for dj in duals])
    return rels, mats


# -- pairing forms: phi, T, ast ------------------------------------------


def phi(rel: Relation) -> Morphism:
    """The pairing form [s+k] -> [0] attached to a relation."""
    return Morphism.from_relation(rel.retype(rel.s + rel.k, 0))


def t_iso(f: Morphism) -> Morphism:
    """Hom([s],[k]) -> Hom([s+k],[0]): pair the output strands away."""
    return compose(ev_bar(f.field, f.k), tensor(f, identity(f.field, f.k)))


def t_inv(form: Morphism, s: int, k: int) -> Morphism:
    """Inverse of t_iso; needs the (s, k) split of the s+k input strands."""
    if form.s != s + k or form.k != 0:
        raise ArityMismatch(f"form has type [{form.s}]->[{form.k}], expected [{s + k}]->[0]")
    F = form.field
    return compose(tensor(form, identity(F, k)), tensor(identity(F, s), coev_bar(F, k)))


def ast(form1: Morphism, form2: Morphism, middle: int) -> Morphism:
    """The induced product on pairing forms, gluing `middle` strands.

    form1: [s+middle] -> [0], form2: [middle+l] -> [0]; the result is the
    [s+l] -> [0] form (form1 ⊗ form2) ∘ (Id ⊗ coev̄_middle ⊗ Id).
    """
    F = form1.field
    s = form1.s - middle
    l = form2.s - middle
    if s < 0 or l < 0 or form1.k or form2.k:
        raise ArityMismatch("ast needs forms into [0] with enough strands")
    glue = tensor(tensor(identity(F, s), coev_bar(F, middle)), identity(F, l))
    return compose(tensor(form1, form2), glue)


# -- orbit basis -----------------------------------------------------------


def superspaces(rel: Relation) -> list[Relation]:
    """All relations whose subspace contains rel's, same typing."""
    out = []
    for b in enumerate_subspaces(rel.field, rel.s + rel.k):
        if b.rows < rel.dim:
            continue
        if b.vstack(rel.basis).rank() == b.rows:
            out.append(Relation._trusted(rel.field, rel.s, rel.k, b))
    return out


def orbit_expand(rel: Relation) -> dict[Relation, Fraction]:
    """Coefficients of f_R in the orbit basis: 1 on every superspace."""
    return {s: Fraction(1) for s in superspaces(rel)}


def _orbit_in_f_basis(rel: Relation, cache) -> dict[Relation, Fraction]:
    """The orbit-basis element at rel written in the relation basis."""
    if rel in cache:
        return cache[rel]
    out = {rel: Fraction(1)}
    for sup in superspaces(rel):
        if sup == rel:
            continue
        for r, c in _orbit_in_f_basis(sup, cache).items():
            out[r] = out.get(r, Fraction(0)) - c
    out = {r: c for r, c in out.items() if c}
    cache[rel] = out
    return out


def orbit_invert(coeffs: dict[Relation, Fraction], field: Fq, s: int, k: int) -> Morphism:
    """Turn an orbit-basis combination into a Morphism (triangular solve)."""
    cache: dict[Relation, dict[Relation, Fraction]] = {}
    acc: dict[Relation, Fraction] = {}
    for rel, c in coeffs.items():
        for r, w in _orbit_in_f_basis(rel, cache).items():
            acc[r] = acc.get(r, Fraction(0)) + c * w
    return Morphism(field, s, k, {r: PolyQ.const(c) for r, c in acc.items() if c})
