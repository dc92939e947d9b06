"""Univariate polynomials in t with exact rational coefficients.

Composition in the formal category scales by powers of t, and every
identity asserted downstream is exact, so coefficients are Fractions and
nothing is ever rounded.  The zero polynomial has degree() == -1 (an
integer sentinel standing in for minus infinity).  Only the constructor
checks and coerces; the arithmetic wraps its canonical results unchecked.

A ``PolyQ`` is immutable.  ``PolyQ.one()``, ``const(1)`` and ``t_power(d)``
with coefficient 1 return one shared instance per degree from a bounded
cache, so the unit that coefficients in the formal category mostly are is
built once, and a caller may test for it by identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import TooLarge
from .field import COUNT_DIGITS

# Python prints no int with more than COUNT_DIGITS digits
_PRINT_LIMIT = 10**COUNT_DIGITS


def check_digits(numerator: int, denominator: int) -> None:
    """TooLarge if |numerator| or the denominator has more digits than
    Python prints; a caller may pass the largest of many."""
    if abs(numerator) >= _PRINT_LIMIT or denominator >= _PRINT_LIMIT:
        raise TooLarge(f"a coefficient has more than {COUNT_DIGITS} digits")


def printable(value: Fraction | int) -> Fraction | int:
    """The value itself, a Fraction or an int; TooLarge if a part has more
    digits than Python prints."""
    check_digits(value.numerator, value.denominator)
    return value


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class PolyQ:
    """Finitely supported map degree -> Fraction; no stored zeros.

    The constructor checks and coerces its input.  The arithmetic below
    builds results that are canonical already (int degrees, nonzero
    Fraction coefficients) and wraps them with ``_trusted``: it prunes a
    zero only where a sum can cancel.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for deg, c in dict(coeffs).items():
                c = _coerce(c)
                if c:
                    data[int(deg)] = c
        self.coeffs = data

    @classmethod
    def _trusted(cls, coeffs: dict) -> "PolyQ":
        """Wrap a dict of int degree -> nonzero Fraction as it stands."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls) -> "PolyQ":
        return cls._trusted({})

    @classmethod
    def const(cls, c) -> "PolyQ":
        return cls.t_power(0, c)

    @classmethod
    def one(cls) -> "PolyQ":
        return _monomial(0)

    @classmethod
    def t_power(cls, d: int, c=1) -> "PolyQ":
        if (c.__class__ is int or c.__class__ is Fraction) and c == 1:
            return _monomial(d)
        c = _coerce(c)
        return cls._trusted({d: c} if c else {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def constant_value(self) -> Fraction:
        """The value of a degree <= 0 polynomial; raises otherwise."""
        if self.degree() > 0:
            raise ValueError(f"{self} is not constant")
        return self.coeffs.get(0, Fraction(0))

    def __eq__(self, other):
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            if d in out:
                c = out[d] + c
                if not c:
                    del out[d]
                    continue
            out[d] = c
        return PolyQ._trusted(out)

    def __neg__(self):
        return PolyQ._trusted({d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if len(self.coeffs) == 1 and len(other.coeffs) == 1:
            ((d1, c1),) = self.coeffs.items()
            ((d2, c2),) = other.coeffs.items()
            return PolyQ._trusted({d1 + d2: c1 * c2})
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                out[d] = out[d] + c1 * c2 if d in out else c1 * c2
        return PolyQ._trusted({d: c for d, c in out.items() if c})

    __rmul__ = __mul__

    def scale(self, c) -> "PolyQ":
        c = _coerce(c)
        return PolyQ._trusted({d: c * v for d, v in self.coeffs.items()} if c else {})

    def evaluate(self, value) -> Fraction:
        """The value at t = value; TooLarge when value^degree is too long to print."""
        value = _coerce(value)
        # a part of b bits is at least 2^(b-1), so its d-th power is past the
        # limit once d(b-1) reaches the limit's bit length
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if self.degree() * (bits - 1) >= _PRINT_LIMIT.bit_length():
            raise TooLarge(f"t^{self.degree()} at the given t has more than {COUNT_DIGITS} digits")
        return sum((c * value**d for d, c in self.coeffs.items()), Fraction(0))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            c = printable(self.coeffs[d])
            if d == 0:
                body = str(c)
            else:
                tpow = "t" if d == 1 else f"t^{d}"
                body = tpow if c == 1 else (f"-{tpow}" if c == -1 else f"{c}*{tpow}")
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
        return out

    __repr__ = __str__


# distinct powers t^d the shared-monomial cache keeps
MONOMIAL_CACHE = 256


@lru_cache(maxsize=MONOMIAL_CACHE)
def _monomial(d: int) -> PolyQ:
    """The shared instance of t^d with coefficient 1."""
    return PolyQ._trusted({d: Fraction(1)})


# det_poly forms up to N! products for N rows (N = 8 at q = 5 takes 1.4 s on a
# 2-vCPU x86-64 VM, Python 3.11); gram refuses more relations than this.
DET_POLY_GUARD = 8


def det_poly(mat: list[list[PolyQ]]) -> PolyQ:
    """Determinant of a square matrix of polynomials, by cofactor expansion."""
    n = len(mat)
    if n == 0:
        return PolyQ.one()
    if n == 1:
        return mat[0][0]
    out = PolyQ.zero()
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in mat[1:]]
        term = mat[0][j] * det_poly(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def rational_roots(p: PolyQ) -> list[Fraction]:
    """All rational roots of p (nonzero p), found exactly.

    Clears denominators, strips the t^v factor (reporting 0 when v > 0),
    and tests the rational-root-theorem candidates.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    roots = []
    v = min(p.coeffs)
    if v > 0:
        roots.append(Fraction(0))
        p = PolyQ({d - v: c for d, c in p.coeffs.items()})
    if p.degree() == 0:
        return sorted(roots)
    denom_lcm = 1
    for c in p.coeffs.values():
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = {d: int(c * denom_lcm) for d, c in p.coeffs.items()}
    a0 = ints.get(0)
    an = ints[max(ints)]
    assert a0, "t factor was stripped"
    seen = set()
    for num in _divisors(a0):
        for den in _divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand in seen:
                    continue
                seen.add(cand)
                if p.evaluate(cand) == 0:
                    roots.append(cand)
    return sorted(roots)
