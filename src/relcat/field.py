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

A field with e > 1 and q <= TABLE_LIMIT answers add, sub, mul, neg and inv
by one lookup in tables built once per (p, e) from the digit arithmetic:
mul and inv from the powers of a primitive element (log/antilog tables,
Lidl-Niederreiter, *Finite Fields*, ch. 9), add digit-wise (XOR in
characteristic 2).  Larger fields with e > 1 compute on digits directly.
The arithmetic methods take valid element codes; ``check`` makes them.

Three whole-row kernels choose the arithmetic path once per row instead
of once per entry: ``translate`` (v + a), ``scale_row`` (c * x) and
``sub_multiple`` (x - f * y, the elimination step of ``matrix.row_reduce``).
In the last two a prime field works mod p on plain ints, a table field
reads row c or f of its mul table (and subtracts by XOR in characteristic
2, by its sub table otherwise), and a field above TABLE_LIMIT uses the
per-entry digit arithmetic, its only path.

All values are immutable and all operations pure.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from operator import itemgetter

from .errors import DegreeOutOfRange, DivisionByZero, NotPrime, TooLarge, UsageError

MAX_DEGREE = 8
TABLE_LIMIT = 256
# Python reads and prints no int of more digits than this (sys.get_int_max_str_digits)
COUNT_DIGITS = 4300


def capped_power(q: int, e: int, cap: int) -> int:
    """q^e for q >= 2, or cap + 1 without forming it once e passes cap's bit
    length, so that a guard can compare a huge power with its bound."""
    return cap + 1 if e > cap.bit_length() else q**e

# Miller-Rabin with these bases is exact below MR_LIMIT (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality below MR_LIMIT; above it TooLarge unless a base in MR_BASES divides n."""
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    if n >= MR_LIMIT:
        raise TooLarge(f"primality of {n} is only decided below {MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by den over F_p; both little-endian, den monic."""
    num = list(num)
    dd = len(den) - 1
    tail = den[:-1]
    for top in range(len(num) - 1, dd - 1, -1):
        lead = num[top] % p
        if lead:
            shift = top - dd
            for i, c in enumerate(tail):
                num[shift + i] -= lead * c
    rem = [c % p for c in num[:dd]]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    out = [c % p for c in out]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_powmod(base: list[int], n: int, mod: list[int], p: int) -> list[int]:
    """base^n modulo the monic polynomial mod, over F_p."""
    out = [1]
    while n:
        if n & 1:
            out = _poly_mod(_poly_mul(out, base, p), mod, p)
        n >>= 1
        if n:
            base = _poly_mod(_poly_mul(base, base, p), mod, p)
    return out


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of two polynomials over F_p (empty when both are 0)."""
    while b:
        inv = pow(b[-1], p - 2, p)
        a, b = b, _poly_mod(a, [c * inv % p for c in b], p)
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Rabin's test for a monic polynomial f of degree e >= 2 over F_p.

    f is irreducible iff x^(p^e) = x mod f and gcd(x^(p^(e/r)) - x, f) = 1
    for every prime r dividing e (Rabin, "Probabilistic algorithms in
    finite fields", SIAM J. Comput. 9, 1980).  The powers x^(p^k) are taken
    for k = 1..e in turn, and a gcd is tested as soon as its power is known.
    """
    e = len(poly) - 1
    checks = {e // r for r in range(2, e + 1) if e % r == 0 and is_prime(r)}
    h = [0, 1]
    for k in range(1, e + 1):
        h = _poly_powmod(h, p, poly, p)
        if k in checks:
            diff = (h + [0, 0])[: max(len(h), 2)]
            diff[1] = (diff[1] - 1) % p
            while diff and diff[-1] == 0:
                diff.pop()
            if len(_poly_gcd(poly, diff, p)) > 1:
                return False
    return h == [0, 1]


# the canonical-modulus search skips candidates with a root by a table of
# the p values of each block of candidates when p is at most ROOT_TABLE_LIMIT
ROOT_TABLE_LIMIT = 2**14
# and gives up (TooLarge) after IRREDUCIBLE_WORK / (e log2 p) Rabin tests,
# each of at most e powers of about log2 p squarings: one to two seconds at
# worst (2-vCPU x86-64 VM, Python 3.11)
IRREDUCIBLE_WORK = 3 * 10**5


@cache
def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The monic irreducible of degree e >= 2 with the smallest code.

    Candidates a0 + a1 x + ... + x^e run in the order of the code
    a0 + a1 p + ..., in blocks of p that share a1..a_{e-1}.
    """
    budget = tests = IRREDUCIBLE_WORK // (e * p.bit_length())
    for high in range(p ** (e - 1)):
        upper = [(high // p**i) % p for i in range(e - 1)] + [1]
        rooted = set()
        if p <= ROOT_TABLE_LIMIT:
            # a0 + c * g(c) = 0 for g = a1 + a2 x + ... + x^(e-1)
            for c in range(p):
                g = 0
                for a in reversed(upper):
                    g = (g * c + a) % p
                rooted.add(-c * g % p)
        for a0 in range(p):
            if a0 in rooted:
                continue
            if not tests:
                raise TooLarge(
                    f"the modulus of F_{p}^{e} is not found within {budget} irreducibility tests"
                )
            tests -= 1
            if _is_irreducible([a0, *upper], p):
                return (a0, *upper)
    raise AssertionError(f"no monic irreducible of degree {e} over F_{p}")


def _digit_mul(a: int, b: int, p: int, e: int, modulus: tuple[int, ...]) -> int:
    """Product of two codes of F_{p^e} by polynomial multiplication mod the modulus."""
    da = [(a // p**i) % p for i in range(e)]
    db = [(b // p**i) % p for i in range(e)]
    rem = _poly_mod(_poly_mul(da, db, p), list(modulus), p)
    return sum(d * p**i for i, d in enumerate(rem))


@cache
def _tables(p: int, e: int) -> tuple:
    """(add, sub, mul, neg, inv) of F_{p^e}, e > 1, built once per (p, e).

    add, sub and mul are lists of rows, so that ``mul[a][b]`` is a * b; neg
    and inv are lists indexed by code, and inv[0] is None.
    """
    q = p**e
    if p == 2:
        add = [[a ^ b for b in range(q)] for a in range(q)]
        neg, sub = list(range(q)), add
    else:
        # add digit by digit: a code below p^(k+1) is low + p^k * top with
        # low below p^k, and the sum of two such codes is the sum of the
        # lows plus p^k times the sum of the tops mod p
        add, size = [[0]], 1
        while size < q:
            shifted = [[[x + size * t for x in row] for t in range(p)] for row in add]
            add = [
                list(chain.from_iterable(rows[(ta + tb) % p] for tb in range(p)))
                for ta in range(p)
                for rows in shifted
            ]
            size *= p
        neg = [row.index(0) for row in add]
        by_neg = itemgetter(*neg)
        sub = [list(by_neg(row)) for row in add]
    # log/antilog tables of the first primitive element g: exp[i] = g^i
    modulus = _smallest_irreducible(p, e)
    for g in range(2, q):
        exp, x = [1], g
        while x != 1:
            exp.append(x)
            x = _digit_mul(x, g, p, e, modulus)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, x in enumerate(exp):
        log[x] = i
    # row a of mul, read at b != 0, is g^(log a + log b): the powers of g
    # rotated by log a, taken in the order of log b
    exp2 = exp + exp
    by_log = itemgetter(*log[1:])
    mul = [[0] * q] + [[0, *by_log(exp2[log[a] :])] for a in range(1, q)]
    inv = [None] + [exp[-log[a] % (q - 1)] for a in range(1, q)]
    return add, sub, mul, neg, inv


class Fq:
    """The field F_q with q = p^e; carries all element operations.

    >>> F4 = Fq(2, 2)
    >>> F4.mul(2, 2)       # x * x = x + 1 mod x^2+x+1
    3
    >>> F4.add(1, 1)
    0
    """

    __slots__ = ("p", "e", "q", "modulus", "_add", "_sub", "_mul", "_neg", "_inv")

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if not 1 <= e <= MAX_DEGREE:
            raise DegreeOutOfRange(f"e = {e} not in [1, {MAX_DEGREE}]")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _smallest_irreducible(p, e) if e > 1 else None
        tabulated = e > 1 and self.q <= TABLE_LIMIT
        self._add, self._sub, self._mul, self._neg, self._inv = (
            _tables(p, e) if tabulated else (None,) * 5
        )

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
    # Each operation takes the first path that applies: arithmetic mod p
    # (e = 1), a table lookup (q <= TABLE_LIMIT), digit arithmetic.

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        table = self._add
        if table is not None:
            return table[a][b]
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def translate(self, values: list[int], a: int) -> list[int]:
        """[add(v, a) for v in values], in one pass on the path that applies.

        Characteristic 2 adds by XOR, before the table path.
        """
        if self.e == 1:
            p = self.p
            return [(v + a) % p for v in values]
        if self.p == 2:
            return [v ^ a for v in values]
        table = self._add
        if table is not None:
            return list(map(table[a].__getitem__, values))
        da = self.digits(a)
        return [self.encode([x + y for x, y in zip(self.digits(v), da)]) for v in values]

    def scale_row(self, c: int, row) -> list[int]:
        """[mul(c, x) for x in row], in one pass on the path that applies."""
        if self.e == 1:
            p = self.p
            return [c * x % p for x in row]
        table = self._mul
        if table is not None:
            return list(map(table[c].__getitem__, row))
        p, e, modulus = self.p, self.e, self.modulus
        return [_digit_mul(c, x, p, e, modulus) for x in row]

    def sub_multiple(self, a, f: int, b) -> list[int]:
        """[sub(x, mul(f, y)) for x, y in zip(a, b)], in one pass on the path that applies.

        Characteristic 2 subtracts by XOR against row f of the mul table.
        """
        if self.e == 1:
            p = self.p
            return [(x - f * y) % p for x, y in zip(a, b)]
        table = self._mul
        if table is not None:
            times_f = table[f]
            if self.p == 2:
                return [x ^ times_f[y] for x, y in zip(a, b)]
            sub = self._sub
            return [sub[x][times_f[y]] for x, y in zip(a, b)]
        return [self.sub(x, self.mul(f, y)) for x, y in zip(a, b)]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        table = self._neg
        if table is not None:
            return table[a]
        return self.encode([-x for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        table = self._sub
        if table is not None:
            return table[a][b]
        return self.encode([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        table = self._mul
        if table is not None:
            return table[a][b]
        return _digit_mul(a, b, self.p, self.e, self.modulus)

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
        table = self._inv
        if table is not None:
            return table[a]
        return self.pow(a, self.q - 2)

    def elements(self) -> range:
        """All q element codes, in increasing order (deterministic)."""
        return range(self.q)


def parse_q(text: str) -> Fq:
    """Parse "p" or "p^e" into a field."""
    parts = text.split("^", 1)
    if not all(part.isdecimal() for part in parts):
        raise UsageError(f"field order must be 'p' or 'p^e', got {text!r}")
    digits = max(map(len, parts))
    if digits > COUNT_DIGITS:
        raise TooLarge(f"a field order part of {digits} digits; at most {COUNT_DIGITS} are read")
    return Fq(*map(int, parts))
