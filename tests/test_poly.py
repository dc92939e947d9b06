"""Exact rational polynomial arithmetic in t."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from relcat.errors import ScalarParseError
from relcat.dsl import parse_poly
from relcat.poly import PolyQ, det_poly, rational_roots

coeff_maps = st.dictionaries(st.integers(0, 5), st.fractions(), max_size=4)


@given(coeff_maps, coeff_maps, coeff_maps)
def test_ring_laws(a, b, c):
    p, q, r = PolyQ(a), PolyQ(b), PolyQ(c)
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == PolyQ.zero()


@given(coeff_maps, st.fractions())
def test_evaluation_is_a_homomorphism(a, x):
    p = PolyQ(a)
    q = PolyQ.t_power(1) - PolyQ.const(2)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


def test_degree_sentinel():
    assert PolyQ.zero().degree() == -1
    assert PolyQ.const(5).degree() == 0
    assert PolyQ.t_power(3).degree() == 3


def test_no_stored_zeros():
    p = PolyQ({2: Fraction(1), 0: Fraction(0)})
    assert 0 not in p.coeffs
    assert (p - p).coeffs == {}


def test_print_parse_round_trip():
    samples = ["3/2*t^2 - 1", "t", "-t + 4", "0", "2*t^3 + t - 5/7", "1"]
    for text in samples:
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


def test_parse_values():
    p = parse_poly("3/2*t^2 - 1")
    assert p.evaluate(2) == Fraction(5)
    assert parse_poly("t^2*2") == PolyQ.t_power(2, 2)
    with pytest.raises(ScalarParseError):
        parse_poly("t^")
    with pytest.raises(ScalarParseError):
        parse_poly("")
    # the scalar grammar of the expression language: no decimals, no signed powers
    for text in ("t^-1", "0.5", "t^+2", "t^2 *", "3 t"):
        with pytest.raises(ScalarParseError):
            parse_poly(text)


def test_constant_value():
    assert PolyQ.const(Fraction(7, 2)).constant_value() == Fraction(7, 2)
    with pytest.raises(ValueError):
        PolyQ.t_power(1).constant_value()


def test_determinant():
    t = PolyQ.t_power(1)
    one = PolyQ.one()
    mat = [[t, one], [one, one]]
    assert det_poly(mat) == t - one
    assert det_poly([]) == one
    # 3x3 with a known cofactor expansion
    mat3 = [[t, one, PolyQ.zero()], [one, t, one], [PolyQ.zero(), one, t]]
    assert det_poly(mat3) == t * t * t - t - t


def test_rational_roots():
    p = parse_poly("t^2 - 3*t + 2")
    assert rational_roots(p) == [Fraction(1), Fraction(2)]
    assert rational_roots(parse_poly("t^3 - t^2")) == [Fraction(0), Fraction(1)]
    assert rational_roots(parse_poly("2*t - 1")) == [Fraction(1, 2)]
    assert rational_roots(parse_poly("t^2 + 1")) == []
    with pytest.raises(ValueError):
        rational_roots(PolyQ.zero())


# -- trusted arithmetic against the checking constructor ----------------------


def _checked_sum(p, q):
    out = dict(p.coeffs)
    for d, c in q.coeffs.items():
        out[d] = out.get(d, 0) + c
    return PolyQ(out)


def _checked_product(p, q):
    out = {}
    for d1, c1 in p.coeffs.items():
        for d2, c2 in q.coeffs.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return PolyQ(out)


def _canonical(p):
    return all(type(d) is int and type(c) is Fraction and c for d, c in p.coeffs.items())


@settings(max_examples=50)
@given(coeff_maps, coeff_maps, st.fractions(), st.integers(0, 5))
def test_trusted_arithmetic_matches_checking_constructor(a, b, c, d):
    p, q = PolyQ(a), PolyQ(b)
    neg_p = PolyQ({deg: -v for deg, v in a.items()})
    cases = [
        (p + q, _checked_sum(p, q)),
        # every degree of p cancels
        (p + neg_p, _checked_sum(p, neg_p)),
        ((p + q) + neg_p, _checked_sum(_checked_sum(p, q), neg_p)),
        (p * q, _checked_product(p, q)),
        # the cross terms of (p + q)(p - q) cancel
        ((p + q) * (p - q), _checked_product(_checked_sum(p, q), _checked_sum(p, -q))),
        (-p, neg_p),
        (p.scale(c), PolyQ({deg: c * v for deg, v in a.items()})),
        (p * int(c), PolyQ({deg: int(c) * v for deg, v in a.items()})),
        (PolyQ.t_power(d, c), PolyQ({d: c})),
        (PolyQ.const(c), PolyQ({0: c})),
    ]
    for got, want in cases:
        assert got == want and hash(got) == hash(want)
        assert _canonical(got), got.coeffs


def test_one_term_products_and_cancelling_sums():
    t, one = PolyQ.t_power(1), PolyQ.one()
    assert (t * PolyQ.t_power(2, Fraction(-3, 2))).coeffs == {3: Fraction(-3, 2)}
    assert ((t + one) * (t - one)).coeffs == {2: 1, 0: -1}
    assert (PolyQ.t_power(3, 5) + PolyQ.t_power(3, -5)).coeffs == {}
    assert PolyQ.t_power(2, 0).coeffs == {} and PolyQ.const(0) == PolyQ.zero()
    assert (t * 0).coeffs == {} and t.scale(Fraction(0)).coeffs == {}
