"""The universal property at rank n >= 2, on generator terms.

C[F_q^n] is the universal F_q-linear Frobenius space of dimension q^n
(Knop, *Tensor envelopes of regular categories*, arXiv:math/0610552).  So
a term evaluated in the formal category and then specialized to rank n
must equal the same term evaluated on the standard structure on F_q^n,
with t read as q^n.  Terms are drawn over the generator atoms, identities,
composition, tensor and Q[t]-linear combinations, with at most two
strands between factors so that every map stays small.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relcat import terms as tm
from relcat.concrete import specialize
from relcat.dsl import eval_formal
from relcat.field import parse_q
from relcat.frobenius import standard_target, term_eval
from relcat.poly import PolyQ
from relcat.relations import GENERATOR_ARITIES

RANKS = [("2", 2), ("3", 2), ("2^2", 2), ("2", 3)]
MAX_STRANDS = 2


@st.composite
def terms(draw, field, dom, cod, depth):
    """A well-typed term [dom] -> [cod] of at most `depth` levels."""
    kind = draw(st.sampled_from(["leaf", "compose", "tensor", "lincomb"] if depth else ["leaf"]))
    if kind == "compose":
        mid = draw(st.integers(0, MAX_STRANDS))
        left = draw(terms(field, mid, cod, depth - 1))
        return tm.Compose(left, draw(terms(field, dom, mid, depth - 1)))
    if kind == "tensor" and dom + cod > 0:
        d1, c1 = draw(st.integers(0, dom)), draw(st.integers(0, cod))
        left = draw(terms(field, d1, c1, depth - 1))
        return tm.Tensor(left, draw(terms(field, dom - d1, cod - c1, depth - 1)))
    if kind == "lincomb":
        coeffs = st.builds(
            lambda a, b: PolyQ({0: a, 1: b}), st.integers(-3, 3), st.integers(0, 2)
        )
        parts = draw(st.lists(st.tuples(coeffs, terms(field, dom, cod, depth - 1)),
                              min_size=1, max_size=2))
        return tm.LinComb(parts)
    gens = sorted(name for name, arity in GENERATOR_ARITIES.items() if arity == (dom, cod))
    # every arity of at most two strands each has an atom or is an identity
    name = draw(st.sampled_from(gens + ["id"] * (dom == cod)))
    if name == "id":
        return tm.IdK(dom)
    a = draw(st.sampled_from(field.elements())) if name == "mu" else None
    return tm.atom(name, a)


@st.composite
def rooted_terms(draw, field):
    dom, cod = draw(st.integers(0, MAX_STRANDS)), draw(st.integers(0, MAX_STRANDS))
    return draw(terms(field, dom, cod, 3))


@pytest.mark.parametrize("q, n", RANKS, ids=[f"q{q}-n{n}" for q, n in RANKS])
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_specialized_formal_value_is_the_standard_structure_value(q, n, data):
    field = parse_q(q)
    term = data.draw(rooted_terms(field))
    formal = specialize(eval_formal(term, field), n).mat
    concrete = term_eval(standard_target(field, n), term, t_value=Fraction(field.q**n))
    assert formal == concrete, tm.to_text(term)
