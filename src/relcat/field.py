"""Exact arithmetic in the finite field F_q, q = p^e.

Elements are integer codes in [0, q).  The base-p digits of a code are the
coefficients of the element in the polynomial basis, little-endian: digit i
is the coefficient of x^i.  Code 0 is the additive zero, code 1 the
multiplicative unit.  For e = 1 everything is plain arithmetic mod p.

For e > 1 multiplication reduces modulo a monic irreducible polynomial of
degree e over F_p.  The modulus is canonical: among all monic irreducibles
of degree e it is the one whose non-leading coefficient string encodes the
smallest base-p integer (constant term least significant).  This makes
``Fq(p, e)`` a pure function of (p, e) and reproduces the classical tables
(x^2+x+1, x^3+x+1, x^4+x+1, x^5+x^2+1, ... over F_2).

All values are immutable and all operations pure.
"""

from __future__ import annotations

from .errors import DegreeOutOfRange, DivisionByZero, NotPrime, UsageError

MAX_DEGREE = 8


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by den over F_p; both little-endian, den monic."""
    num = list(num)
    dd = len(den) - 1
    while len(num) > dd:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - dd
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(poly)/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for m in range(p**d):
            div = [(m // p**i) % p for i in range(d)] + [1]
            if not _poly_mod(poly, div, p):
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    for m in range(p**e):
        poly = [(m // p**i) % p for i in range(e)] + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no monic irreducible of degree {e} over F_{p}")


class Fq:
    """The field F_q with q = p^e; carries all element operations.

    >>> F4 = Fq(2, 2)
    >>> F4.mul(2, 2)       # x * x = x + 1 mod x^2+x+1
    3
    >>> F4.add(1, 1)
    0
    """

    __slots__ = ("p", "e", "q", "modulus")

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if not 1 <= e <= MAX_DEGREE:
            raise DegreeOutOfRange(f"e = {e} not in [1, {MAX_DEGREE}]")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _smallest_irreducible(p, e) if e > 1 else None

    def __eq__(self, other):
        return isinstance(other, Fq) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"Fq({self.p}, {self.e})"

    def __str__(self):
        return f"{self.p}^{self.e}" if self.e > 1 else str(self.p)

    # -- element codec ------------------------------------------------

    def digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.e)]

    def encode(self, digits: list[int]) -> int:
        return sum((d % self.p) * self.p**i for i, d in enumerate(digits))

    def check(self, a: int) -> int:
        """Reduce an integer to a valid element code (negatives allowed)."""
        if self.e == 1:
            return a % self.p
        if 0 <= a < self.q:
            return a
        # Out-of-range codes are reduced digit-wise; this makes -1 the
        # code of the additive inverse of 1, convenient for literals.
        if a < 0:
            return self.neg(self.check(-a))
        return self.encode(self.digits(a))

    # -- arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = self.digits(a), self.digits(b)
        return self.encode([x + y for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self.encode([-x for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.digits(a), self.digits(b), self.p)
        rem = _poly_mod(prod, list(self.modulus), self.p)
        return self.encode(rem + [0] * (self.e - len(rem)))

    def pow(self, a: int, n: int) -> int:
        if self.e == 1:
            return pow(a, n, self.p)
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise DivisionByZero("inverse of 0")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> range:
        """All q element codes, in increasing order (deterministic)."""
        return range(self.q)


def parse_q(text: str) -> Fq:
    """Parse "p" or "p^e" into a field."""
    parts = text.split("^", 1)
    if not all(part.isdecimal() for part in parts):
        raise UsageError(f"field order must be 'p' or 'p^e', got {text!r}")
    return Fq(*map(int, parts))
