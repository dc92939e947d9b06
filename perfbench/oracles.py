"""Untimed output checks, one per job kind.

Each check reads a job's captured stdout and returns None when it is right
or a one-line reason when it is not.  None of them calls the code path the
job timed:

- `verify`: exit 0, every line PASS, a final `PASS suite <name>` line, and
  trial counts equal to `--trials` where the suite prints them.
- `eval`: the formal result, specialized at n = 1 (`concrete.f_r_matrix`),
  equals `frobenius.term_eval` of the expression on the standard target at
  t = q.
- `specialize` and `gram`: a brute-force model written here.  A relation's
  basis rows are linear constraints; at rank n the matrix of f_R has a 1 at
  (w, v) exactly when every coordinate slot of (v | w) satisfies them.  At
  n = 1 the Gram entry of (R_i, R_j) is the number of vectors satisfying
  both, q^e with e an integer, and the formal entry is t^e.  The printed
  matrix and determinant are compared with that model, the determinant by
  Fraction elimination at enough points of t to fix the polynomial.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product


class GF:
    """F_q on the codes relcat uses: base-p digits of a polynomial in x,
    reduced by the smallest monic irreducible of degree e (e <= 3, so
    irreducible means root-free)."""

    def __init__(self, q_text: str):
        p, _, e = q_text.partition("^")
        self.p, self.e = int(p), int(e or 1)
        self.q = self.p**self.e
        modulus = None if self.e == 1 else next(
            poly for poly in (self._digits(m) + [1] for m in range(self.q))
            if all(sum(c * x**i for i, c in enumerate(poly)) % self.p for x in range(self.p))
        )
        q = self.q
        self.add = [[self._encode([a + b for a, b in zip(self._digits(x), self._digits(y))])
                     for y in range(q)] for x in range(q)]
        self.mul = [[self._mul(x, y, modulus) for y in range(q)] for x in range(q)]

    def _digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.e)]

    def _encode(self, digits) -> int:
        return sum((d % self.p) * self.p**i for i, d in enumerate(digits))

    def _mul(self, a: int, b: int, modulus) -> int:
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] += x * y
        for top in range(len(prod) - 1, self.e - 1, -1):  # reduce by the monic modulus
            c = prod[top] % self.p
            for i in range(self.e + 1):
                prod[top - self.e + i] -= c * modulus[i]
        return self._encode(prod[: self.e])

    def satisfies(self, rows, vec) -> bool:
        for row in rows:
            acc = 0
            for c, x in zip(row, vec):
                acc = self.add[acc][self.mul[c % self.q][x]]
            if acc:
                return False
        return True


def _digits(code: int, q: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        out.append(code % q)
        code //= q
    return out


def relation_matrix(gf: GF, rows, s: int, k: int, n: int) -> set:
    """(row, col) cells of the 0/1 matrix of f_R at rank n, by brute force.

    A tuple code holds strand x, slot j at base-q digit x*n + j.
    """
    q = gf.q
    cells = set()
    for col in range(q ** (n * s)):
        v = _digits(col, q, n * s)
        for row in range(q ** (n * k)):
            w = _digits(row, q, n * k)
            if all(gf.satisfies(rows, [v[x * n + j] for x in range(s)] +
                                [w[y * n + j] for y in range(k)]) for j in range(n)):
                cells.add((row, col))
    return cells


def det(mat) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in mat]
    n, out = len(a), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def parse_poly(text: str) -> dict[int, Fraction]:
    """Degree -> coefficient of a printed polynomial such as `t^2 - 3/2*t + 1`."""
    out: dict[int, Fraction] = {}
    for sign, body in re.findall(r"(^-|[+-] |^)([^ ]+)", text.strip()):
        coeff, _, power = body.rpartition("t")
        if "t" not in body:
            coeff, power, deg = body, "", 0
        else:
            deg = int(power[1:]) if power else 1
            coeff = coeff.rstrip("*") or "1"
        value = Fraction(coeff) * (-1 if sign.strip() == "-" else 1)
        out[deg] = out.get(deg, Fraction(0)) + value
    return out


def _eval_poly(poly: dict[int, Fraction], t) -> Fraction:
    return sum((c * Fraction(t) ** d for d, c in poly.items()), Fraction(0))


# -- checks ---------------------------------------------------------------


def check_verify(job, out: str):
    lines = out.rstrip("\n").split("\n")
    suite = job.meta["suite"]
    if lines[-1] != f"PASS suite {suite}":
        return f"last line is {lines[-1]!r}"
    if any(not line.startswith("PASS ") for line in lines):
        return "a check line is not PASS"
    argv = list(job.argv)
    if "--trials" in argv:
        trials = argv[argv.index("--trials") + 1]
        counts = re.findall(r"\((\d+) trials\)", out)
        if not counts or any(c != trials for c in counts):
            return f"trial counts {counts} differ from --trials {trials}"
    return None


def check_eval(job, out: str):
    from relcat.concrete import specialize
    from relcat.dsl import eval_formal, parse
    from relcat.field import parse_q
    from relcat.frobenius import standard_target, term_eval

    field = parse_q(job.meta["q"])
    formal = eval_formal(parse(out.strip(), field), field)
    expected = term_eval(standard_target(field, 1), parse(job.meta["expr"], field),
                         t_value=Fraction(field.q))
    if specialize(formal, 1).mat != expected:
        return "specialized result differs from term_eval on the standard target"
    return None


def check_specialize(job, out: str):
    meta = job.meta
    payload = json.loads(out)
    s, k, n = meta["s"], meta["k"], meta["n"]
    if (payload["q"], payload["n"], payload["s"], payload["k"]) != ("2", n, s, k):
        return "header differs from the job"
    gf = GF("2")
    t = Fraction(2) ** n
    expected: dict[tuple[int, int], Fraction] = {}
    for c0, c1, rows in meta["terms"]:
        for cell in relation_matrix(gf, rows, s, k, n):
            expected[cell] = expected.get(cell, Fraction(0)) + c0 + c1 * t
    expected = {cell: v for cell, v in expected.items() if v}
    got = {(r, c): Fraction(v) for r, c, v in payload["entries"]}
    return None if got == expected else "entries differ from the brute-force sum"


def _subspace_count(q: int, r: int) -> int:
    """Number of subspaces of F_q^r, summing Gaussian binomials."""
    total = 0
    for d in range(r + 1):
        num = den = 1
        for i in range(d):
            num *= q ** (r - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def check_gram(job, out: str):
    meta = job.meta
    gf = GF(meta["q"])
    q, s, k, t = gf.q, meta["s"], meta["k"], meta["t"]
    lines = out.rstrip("\n").split("\n")
    count = _subspace_count(q, s + k)
    if lines[0] != f"basis ({count} relations):" or lines[count + 1] != "gram matrix:":
        return "basis header or size is wrong"
    sols = []
    for line in lines[1 : count + 1]:
        m = re.fullmatch(rf"  rel\({re.escape(meta['q'])};{s},{k};(\[.*\])\)", line)
        if m is None:
            return f"bad relation line {line!r}"
        rows = json.loads(m.group(1))
        sols.append(frozenset(
            v for v in product(range(q), repeat=s + k) if gf.satisfies(rows, v)
        ))
    if len(set(sols)) != count:
        return "the basis repeats a relation"
    expo = []
    for si in sols:
        row = []
        for sj in sols:
            size, e = len(si & sj), 0
            while q**e < size:
                e += 1
            if q**e != size:
                return "an intersection is not a power of q"
            row.append(e)
        expo.append(row)
    printed = [line.strip()[1:-1].split(", ") for line in lines[count + 2 : 2 * count + 2]]

    def entry(e):
        if t is not None:
            return str(Fraction(t) ** e)
        return "1" if e == 0 else "t" if e == 1 else f"t^{e}"

    if printed != [[entry(e) for e in row] for row in expo]:
        return "gram matrix differs from t^dim(intersection)"

    def det_at(x) -> Fraction:
        return det([[Fraction(x) ** e for e in row] for row in expo])

    det_line, roots_line = lines[2 * count + 2], lines[2 * count + 3]
    if not det_line.startswith("det = ") or not roots_line.startswith("rational roots: "):
        return "det or roots line missing"
    roots_text = roots_line[len("rational roots: "):]
    if t is not None:
        if Fraction(det_line[6:]) != det_at(t):
            return "det differs from Fraction elimination"
        return None if roots_text == "(none)" else "a constant det printed roots"
    poly = parse_poly(det_line[6:])
    if not any(poly.values()):  # relcat prints no roots for a zero det
        zero = all(not det_at(x) for x in range(len(expo) + 1))
        return None if zero and roots_text == "(none)" else "det is printed as 0"
    top = sum(max(row) for row in expo)
    if max(poly, default=0) > top:
        return "det degree exceeds the Gram bound"
    # the values at t = q and at top + 1 points fix a polynomial of degree <= top
    for x in [q] + list(range(top + 1)):
        if _eval_poly(poly, x) != det_at(x):
            return f"det differs from Fraction elimination at t={x}"
    roots = [] if roots_text == "(none)" else [Fraction(r) for r in roots_text.split(", ")]
    if roots != sorted(set(roots)) or any(det_at(r) for r in roots):
        return "a printed root is not a root"
    candidates = {Fraction(sign * q**j) for j in range(top + 1) for sign in (1, -1)} | {0}
    if any(not det_at(c) and c not in roots for c in candidates):
        return "a root of the form +-q^j or 0 is missing"
    return None


CHECKS = {
    "verify": check_verify,
    "eval": check_eval,
    "specialize": check_specialize,
    "gram": check_gram,
}


def check(job, record: dict):
    """None when the job ran and its output is right, else the reason."""
    if record["error"] is not None:
        return record["error"]
    if record["rc"] != 0:
        return f"exit {record['rc']}: {record['stderr'].strip()[:200]}"
    try:
        return CHECKS[job.kind](job, record["stdout"])
    except Exception as exc:  # output the check cannot read is wrong output
        return f"check raised {type(exc).__name__}: {exc}"
