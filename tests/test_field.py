"""Exact finite field arithmetic."""

import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from relcat import field as field_module
from relcat.errors import DegreeOutOfRange, DivisionByZero, NotPrime, TooLarge
from relcat.field import (
    TABLE_LIMIT,
    Fq,
    _poly_mod,
    _poly_mul,
    _smallest_irreducible,
    is_prime,
    parse_q,
)


def test_prime_fields_no_modulus():
    assert Fq(2, 1).modulus is None
    assert Fq(3).q == 3
    assert str(Fq(5)) == "5"


def test_f4_modulus_is_unique_irreducible():
    # enumerate monic degree-2 polynomials over F_2 and root-test by hand:
    # x^2, x^2+1=(x+1)^2, x^2+x=x(x+1) all factor; x^2+x+1 is the only one left
    assert Fq(2, 2).modulus == (1, 1, 1)


def test_classical_moduli_table():
    assert Fq(2, 3).modulus == (1, 1, 0, 1)  # x^3+x+1
    assert Fq(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4+x+1
    assert Fq(3, 2).modulus == (1, 0, 1)  # x^2+1


def trial_division_modulus(p, e):
    """The first monic irreducible of degree e in code order, by trial division."""
    for m in range(p**e):
        poly = [(m // p**i) % p for i in range(e)] + [1]
        if all(
            _poly_mod(poly, [(n // p**i) % p for i in range(d)] + [1], p)
            for d in range(1, e // 2 + 1)
            for n in range(p**d)
        ):
            return tuple(poly)


def test_moduli_match_trial_division():
    cases = [(p, e) for p in range(2, 28) if is_prime(p) for e in range(2, 10) if p**e <= 3**6]
    assert len(cases) == 23
    for p, e in cases:
        assert _smallest_irreducible(p, e) == trial_division_modulus(p, e), (p, e)


@pytest.mark.parametrize("p,e", [(1000000007, 2), (10007, 3), (101, 8)])
def test_moduli_of_large_characteristic(p, e):
    start = time.perf_counter()
    modulus = _smallest_irreducible.__wrapped__(p, e)
    assert time.perf_counter() - start < 1.0
    assert len(modulus) == e + 1 and modulus[-1] == 1
    assert field_module._is_irreducible(list(modulus), p)
    # the 50 candidates just before it are reducible
    code = sum(c * p**i for i, c in enumerate(modulus[:-1]))
    for m in range(max(0, code - 50), code):
        poly = [(m // p**i) % p for i in range(e)] + [1]
        assert not field_module._is_irreducible(poly, p), poly


def test_modulus_search_is_guarded(monkeypatch):
    # x^3 + a always has a root when p = 2 mod 3, so the search must scan
    # the whole first block of p candidates
    monkeypatch.setattr(field_module, "IRREDUCIBLE_WORK", 1000)
    with pytest.raises(TooLarge):
        _smallest_irreducible.__wrapped__(1000037, 3)


def test_char2_add_is_self_inverse():
    F = Fq(2)
    assert F.add(1, 1) == 0


def test_q3_inverse():
    assert Fq(3).inv(2) == 2


def test_f4_multiplication():
    # x * x = x^2 = x + 1 mod x^2+x+1, i.e. code 2 * 2 = 3
    F4 = Fq(2, 2)
    assert F4.mul(2, 2) == 3
    assert F4.mul(2, 3) == 1


def test_enumeration_order():
    for F in (Fq(2), Fq(3), Fq(2, 2)):
        assert list(F.elements()) == list(range(F.q))


def assert_field_laws(F, a, b, c):
    assert F.add(a, 0) == a
    assert F.mul(a, 1) == a
    assert F.add(a, F.neg(a)) == 0
    assert F.sub(a, b) == F.add(a, F.neg(b))
    if a:
        assert F.mul(a, F.inv(a)) == 1
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, e):
    F = Fq(p, e)
    els = list(F.elements())
    for a in els:
        for b in els:
            for c in els:
                assert_field_laws(F, a, b, c)


@pytest.mark.parametrize("p,e", [(17, 2), (3, 6)])
def test_field_axioms_above_table_limit(p, e):
    # these fields compute on digits: no tables are built for them
    F = Fq(p, e)
    assert F.q > TABLE_LIMIT and F._mul is None
    rng = random.Random(f"{p}^{e}")
    for _ in range(500):
        assert_field_laws(F, *(rng.randrange(F.q) for _ in range(3)))


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (2, 8), (3, 5)])
def test_tables_match_digit_arithmetic(p, e):
    F = Fq(p, e)
    assert F._mul is not None
    digits = [F.digits(a) for a in F.elements()]
    code = {tuple(d): a for a, d in enumerate(digits)}  # F.encode on reduced digits
    modulus = list(F.modulus)
    for a, da in enumerate(digits):
        assert F.neg(a) == F.encode([-x for x in da])
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b, db in enumerate(digits):
            assert F.add(a, b) == code[tuple([(x + y) % p for x, y in zip(da, db)])]
            assert F.sub(a, b) == code[tuple([(x - y) % p for x, y in zip(da, db)])]
            rem = _poly_mod(_poly_mul(da, db, p), modulus, p)
            assert F.mul(a, b) == code[tuple(rem + [0] * (e - len(rem)))]


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (2, 8)])
def test_translate_matches_add(p, e):
    # e = 1 adds mod p, F_8 and F_256 by XOR, F_9 by a row of its add table
    F = Fq(p, e)
    values = list(F.elements())
    for a in F.elements():
        assert F.translate(values, a) == [F.add(v, a) for v in values]


@pytest.mark.parametrize("p,e", [(17, 2), (3, 6)])
def test_translate_matches_add_on_digits(p, e):
    # above the table limit translate adds digit by digit
    F = Fq(p, e)
    assert F._add is None
    rng = random.Random(f"translate {p}^{e}")
    for _ in range(500):
        v, a = rng.randrange(F.q), rng.randrange(F.q)
        assert F.translate([v], a) == [F.add(v, a)]
    assert F.translate([], 1) == []


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 8)])
def test_row_kernels_match_mul_and_sub(p, e):
    # e = 1 works mod p, characteristic 2 XORs a row of the mul table, F_9
    # looks up its sub table
    F = Fq(p, e)
    values = list(F.elements())
    shifted = values[1:] + values[:1]
    for f in F.elements():
        assert F.scale_row(f, values) == [F.mul(f, x) for x in values]
        assert F.sub_multiple(values, f, shifted) == [
            F.sub(x, F.mul(f, y)) for x, y in zip(values, shifted)
        ]
        assert F.sub_multiple(shifted, f, values) == [
            F.sub(x, F.mul(f, y)) for x, y in zip(shifted, values)
        ]
    assert F.scale_row(1, []) == [] and F.sub_multiple([], 1, []) == []


@pytest.mark.parametrize("p,e", [(17, 2), (3, 6)])
def test_row_kernels_match_mul_and_sub_on_digits(p, e):
    # above the table limit the kernels compute digit by digit
    F = Fq(p, e)
    assert F._mul is None
    rng = random.Random(f"row kernels {p}^{e}")
    for _ in range(500):
        f, x, y = (rng.randrange(F.q) for _ in range(3))
        assert F.scale_row(f, [x]) == [F.mul(f, x)]
        assert F.sub_multiple([x], f, [y]) == [F.sub(x, F.mul(f, y))]


@pytest.mark.parametrize("p,e", [(2, 8), (3, 5)])
def test_tables_are_built_once_per_field(p, e):
    assert Fq(p, e)._mul is Fq(p, e)._mul


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 3), (5, 2), (2, 8)])
def test_frobenius_endomorphism_additive(p, e):
    F = Fq(p, e)
    for a in F.elements():
        for b in F.elements():
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_construction_deterministic():
    assert Fq(2, 4).modulus == Fq(2, 4).modulus
    assert Fq(3, 2) == Fq(3, 2)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_ring_laws_hypothesis(a, b, c):
    F = Fq(3, 2)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.sub(a, b) == F.add(a, F.neg(b))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Fq(3).inv(0)
    with pytest.raises(DivisionByZero):
        Fq(2, 2).inv(0)


def test_bad_parameters():
    with pytest.raises(NotPrime):
        Fq(4)
    with pytest.raises(NotPrime):
        Fq(1)
    with pytest.raises(DegreeOutOfRange):
        Fq(2, 0)
    with pytest.raises(DegreeOutOfRange):
        Fq(2, 9)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**4) if is_prime(n)] == [
        n for n in range(10**4) if by_trial_division(n)
    ]


def test_is_prime_large():
    start = time.perf_counter()
    assert is_prime(1000000000000000003)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    # strong pseudoprimes to the prime bases up to 23 and up to 37
    assert not is_prime(3825123056546413051) and not is_prime(318665857834031151167461)
    assert not is_prime(10**30)  # a small factor decides it at any size
    assert time.perf_counter() - start < 0.1
    with pytest.raises(TooLarge):
        is_prime(100000000000000000000000000319)  # a prime above the exact range


def test_parse_q():
    assert parse_q("2^3").q == 8
    assert parse_q("7") == Fq(7)


def test_negative_codes_reduce():
    F = Fq(3)
    assert F.check(-1) == 2
    F4 = Fq(2, 2)
    assert F4.check(-1) == 1  # characteristic 2
