"""Parser and evaluator for the morphism expression language.

Grammar (loosest binding first):

    expr    := addend (('+' | '-') addend)*
    addend  := [scalar '*'] tens
    tens    := comp ('@' comp)*
    comp    := atom ('.' atom)*
    atom    := eps | eps* | m | m* | sigma | z | z* | plus | ev | coev
             | mu '(' int ')' | id '(' int ')'
             | rel '(' q ';' int ',' int ';' rows ')'
             | muM '(' int ';' rows ')'
             | name                      -- a previously bound name
             | '(' expr ')'

    scalar  := sfactor ('*' sfactor)* | '(' polynomial ')'
    sfactor := rational | 't' ['^' nat]

'.' is composition with the right argument applied first, '@' is the
tensor with the left factor on the left strands.  Files may contain
";"-separated bindings "name := expr"; the value of the file is the last
expression.  A file is parsed as one token stream, so the ";" inside a
rel(...) or muM(...) literal is part of the literal.  mu scalars and
matrix entries are reduced into the ambient field, which is why parsing
takes the field as an argument.

The tokenizer cuts the source in one ``finditer`` pass.  A coefficient of
1 (a bare term or an explicit ``1 *``) and every ``t^d`` are the shared
instances of ``poly``, and a generator atom or ``id(k)`` evaluates to the
shared morphism of ``category``: values are immutable, so nothing copies
them.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import category as cat
from .category import Morphism
from .errors import FieldMismatch, ParseError, ScalarParseError, TooLarge
from .field import COUNT_DIGITS, Fq, parse_q
from .matrix import MatFq
from .poly import PolyQ
from .relations import GENERATOR_ARITIES, Relation
from .terms import Compose, Gen, IdK, LinComb, MuLit, RelLit, Tensor, Term

# each match is one token after any whitespace; a character that starts no
# token is matched alone as "bad", so the matches cover the source without gaps
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<name>[A-Za-z_][A-Za-z_0-9]*\*?)
    | (?P<num>\d+)
    | (?P<op>:=|\^|[().\[\],;@+\-*/])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

# every generator but mu(a), which takes an argument, is an atom
_ATOMS = set(GENERATOR_ARITIES) - {"mu"}
_STARRED = {name for name in _ATOMS if name.endswith("*")}


def _tokenize(src: str):
    """The (text, position) tokens of src in one pass, ending in ("<end>", len(src))."""
    tokens = []
    for match in _TOKEN_RE.finditer(src):
        kind = match.lastgroup
        text = match.group(kind)
        pos = match.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
        if kind == "num" and len(text) > COUNT_DIGITS:
            # Python reads no int of more digits
            raise TooLarge(f"a number of {len(text)} digits (at position {pos}); "
                           f"at most {COUNT_DIGITS} are read")
        if kind == "name" and text[-1] == "*" and text not in _STARRED:
            # only the starred generators end in '*'; split it off any other name
            tokens.append((text[:-1], pos))
            tokens.append(("*", pos + len(text) - 1))
        else:
            tokens.append((text, pos))
    tokens.append(("<end>", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, field: Fq, env=None):
        self.tokens = _tokenize(src)
        self.i = 0
        self.field = field
        self.env = env or {}

    # -- token plumbing ----------------------------------------------

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

    def expect(self, text):
        if self.peek() != text:
            raise ParseError(f"expected {text!r}, found {self.peek()!r}", self.pos())
        return self.advance()

    def fail(self, message):
        raise ParseError(message, self.pos())

    # -- scalar (polynomial) layer -------------------------------------

    def try_scalar_prefix(self):
        """Parse 'scalar *' if present; returns PolyQ or None (backtracks)."""
        save = self.i
        try:
            poly = self.parse_scalar()
            self.expect("*")
            # the next token must start a morphism factor
            if self.peek() in _ATOMS or self.peek() in ("mu", "id", "rel", "muM", "(") or (
                self.peek() in self.env
            ):
                return poly
            raise ParseError("scalar not followed by a morphism", self.pos())
        except ParseError:
            self.i = save
            return None

    def parse_scalar(self) -> PolyQ:
        if self.peek() == "(":
            save = self.i
            self.advance()
            poly = self.parse_poly_sum()
            if self.peek() != ")":
                self.i = save
                self.fail("not a parenthesized scalar")
            self.advance()
            return poly
        return self.parse_poly_product()

    def parse_poly_sum(self) -> PolyQ:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.advance() == "-" else 1
        out = self.parse_poly_product().scale(sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.advance() == "-" else 1
            out = out + self.parse_poly_product().scale(sign)
        return out

    def parse_poly_product(self) -> PolyQ:
        out = self.parse_poly_factor()
        while self.peek() == "*":
            save = self.i
            self.advance()
            try:
                out = out * self.parse_poly_factor()
            except ParseError:
                self.i = save
                break
        return out

    def parse_poly_factor(self) -> PolyQ:
        """A rational or a power of t.  A negative power or a zero denominator
        raises ScalarParseError, not ParseError: the scalar prefix backtracks
        on ParseError, and no other reading of such input is valid."""
        tok = self.peek()
        if tok == "t":
            self.advance()
            deg = 1
            if self.peek() == "^":
                self.advance()
                at = self.pos()
                deg = self.expect_int()
                if deg < 0:
                    raise ScalarParseError(
                        f"negative power t^{deg} (at position {at}); scalars are polynomials in t"
                    )
            return PolyQ.t_power(deg)
        if tok == "-":
            self.advance()
            return -self.parse_poly_factor()
        if tok.isdigit():
            num = int(self.advance())
            if self.peek() == "/":
                self.advance()
                at = self.pos()
                den = self.expect_int()
                if den == 0:
                    raise ScalarParseError(f"zero denominator in {num}/0 (at position {at})")
                return PolyQ.const(Fraction(num, den))
            return PolyQ.const(num)
        self.fail(f"expected a scalar factor, found {tok!r}")

    def expect_int(self) -> int:
        tok = self.peek()
        neg = False
        if tok == "-":
            self.advance()
            neg = True
            tok = self.peek()
        if not tok.isdigit():
            self.fail(f"expected an integer, found {tok!r}")
        val = int(self.advance())
        return -val if neg else val

    # -- morphism layer --------------------------------------------------

    def parse_expr(self) -> Term:
        parts = []
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.advance() == "-" else 1
        parts.append(self.parse_addend(sign))
        explicit = parts[0][2]
        while self.peek() in ("+", "-"):
            sign = -1 if self.advance() == "-" else 1
            parts.append(self.parse_addend(sign))
            explicit = True
        if len(parts) == 1 and not explicit:
            # a bare term: its coefficient is the unit
            return parts[0][1]
        return LinComb([(c, t) for c, t, _ in parts])

    def parse_addend(self, sign: int):
        coeff = self.try_scalar_prefix()
        explicit = coeff is not None
        if coeff is None:
            coeff = PolyQ.one()
        term = self.parse_tensor()
        return (coeff if sign > 0 else -coeff), term, explicit or sign < 0

    def parse_tensor(self) -> Term:
        out = self.parse_compose()
        while self.peek() == "@":
            self.advance()
            out = Tensor(out, self.parse_compose())
        return out

    def parse_compose(self) -> Term:
        out = self.parse_atom()
        while self.peek() == ".":
            self.advance()
            out = Compose(out, self.parse_atom())
        return out

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok in _ATOMS:
            self.advance()
            return Gen(tok)
        if tok == "mu":
            self.advance()
            self.expect("(")
            a = self.expect_int()
            self.expect(")")
            return Gen("mu", self.field.check(a))
        if tok == "id":
            self.advance()
            self.expect("(")
            k = self.expect_int()
            self.expect(")")
            return IdK(k)
        if tok == "rel":
            return self.parse_rel_literal()
        if tok == "muM":
            return self.parse_mu_literal()
        if tok in self.env:
            self.advance()
            return self.env[tok]
        self.fail(f"expected a morphism atom, found {tok!r}")

    def parse_rows(self) -> list[list[int]]:
        self.expect("[")
        rows = []
        while self.peek() == "[":
            self.advance()
            row = []
            while self.peek() != "]":
                row.append(self.expect_int())
                if self.peek() == ",":
                    self.advance()
            self.expect("]")
            rows.append(row)
            if self.peek() == ",":
                self.advance()
        self.expect("]")
        return rows

    def parse_rel_literal(self) -> Term:
        self.expect("rel")
        self.expect("(")
        qtext = str(self.expect_int())
        if self.peek() == "^":
            self.advance()
            qtext += f"^{self.expect_int()}"
        field = parse_q(qtext)
        if field != self.field:
            raise FieldMismatch(f"relation literal over F_{qtext}, context is F_{self.field}")
        self.expect(";")
        s = self.expect_int()
        self.expect(",")
        k = self.expect_int()
        self.expect(";")
        rows = self.parse_rows()
        self.expect(")")
        for row in rows:
            if len(row) != s + k:
                self.fail(f"rel row of length {len(row)}, arities give {s + k} columns")
        return RelLit(Relation.from_rows(field, s, k, rows))

    def parse_mu_literal(self) -> Term:
        self.expect("muM")
        self.expect("(")
        cols = self.expect_int()
        self.expect(";")
        rows = self.parse_rows()
        self.expect(")")
        for row in rows:
            if len(row) != cols:
                self.fail(f"muM row of length {len(row)}, declared {cols} columns")
        flat = [x for row in rows for x in row]
        return MuLit(MatFq(self.field, len(rows), cols, flat))


def parse(src: str, field: Fq) -> Term:
    """Parse a single expression into a typed Term."""
    parser = _Parser(src, field)
    term = parser.parse_expr()
    parser.expect("<end>")
    return term


def parse_poly(text: str) -> PolyQ:
    """Parse a polynomial in t alone, such as "3/2*t^2 - 1", by the scalar grammar."""
    parser = _Parser(text, None)
    try:
        poly = parser.parse_poly_sum()
        parser.expect("<end>")
    except ParseError as exc:
        raise ScalarParseError(f"bad polynomial {text!r}: {exc}") from exc
    return poly


def parse_program(src: str, field: Fq) -> Term:
    """Parse ";"-separated bindings "name := expr"; value is the last expr.

    The whole program is one token stream, so a ";" inside a literal stays
    in the literal and every error position counts from the start of src.
    """
    parser = _Parser(src, field)
    last = None
    while parser.peek() != "<end>":
        if parser.peek() == ";":
            parser.advance()
            continue
        name = None
        if (
            parser.peek() not in _ATOMS
            and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", parser.peek())
            and parser.tokens[parser.i + 1][0] == ":="
        ):
            name = parser.advance()
            parser.advance()
        term = parser.parse_expr()
        if parser.peek() != "<end>":
            parser.expect(";")
        if name is not None:
            parser.env[name] = term
        last = term
    if last is None:
        raise ParseError("empty program", 0)
    return last


def eval_formal(term: Term, field: Fq, memo: dict | None = None) -> Morphism:
    """Interpret a Term in the formal category.

    Each distinct subterm is evaluated once, through memo (term -> morphism
    over this field).  A call without one builds its own; callers that
    evaluate many terms over one field may pass one memo to every call.
    The lookup is inline, so the recursion takes one frame per term level.
    The swap chain of ``terms.perm_term`` carries its permutation and is the
    one permutation arrow of ``category``, with no composite of its swaps;
    any other sigma chain is composed factor by factor.
    """
    if memo is None:
        memo = {}
    else:
        out = memo.get(term)
        if out is not None:
            return out
    if isinstance(term, Gen):
        out = cat.generator(field, term.name, term.a)
    elif isinstance(term, IdK):
        out = cat.identity(field, term.k)
    elif isinstance(term, RelLit):
        if term.rel.field != field:
            raise FieldMismatch("relation literal over a different field")
        out = Morphism.from_relation(term.rel)
    elif isinstance(term, MuLit):
        if term.mat.field != field:
            raise FieldMismatch("matrix literal over a different field")
        out = cat.mu_morphism(term.mat)
    elif isinstance(term, Compose):
        if term.perm is None:
            out = cat.compose(eval_formal(term.left, field, memo),
                              eval_formal(term.right, field, memo))
        else:
            out = cat.permutation(field, term.perm)
    elif isinstance(term, Tensor):
        out = cat.tensor(eval_formal(term.left, field, memo), eval_formal(term.right, field, memo))
    elif isinstance(term, LinComb):
        out = Morphism.zero(field, term.dom, term.cod)
        for coeff, sub in term.parts:
            out = out.add(eval_formal(sub, field, memo).scale(coeff))
    else:
        raise TypeError(f"not a Term: {term!r}")
    memo[term] = out
    return out
