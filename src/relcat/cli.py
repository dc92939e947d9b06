"""Command-line interface.

Subcommands: eval, specialize, verify, gram, count, knop-convert.  Exit
codes: 0 success, 1 verification failure, 2 usage or parse error, 3
feasibility guard exceeded.  Given identical flags (including --seed) the
output is byte-identical across runs.

The argparse parser is built on the first ``main`` call, not at import, and
then shared by every later call in the process: it holds no state between
calls, and each ``parse_args`` returns a fresh namespace.

Importing this module loads only ``errors`` and ``field`` of the package;
each ``cmd_*`` imports the layers it runs when it runs, so a one-shot
command pays only for those.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from operator import attrgetter

from .errors import (
    ParseError,
    RelcatError,
    RequiresEvaluation,
    ScalarParseError,
    TooLarge,
    UsageError,
)
from .field import COUNT_DIGITS, parse_q

# the least value of each size flag; below --trials 1 no trial runs, and a
# suite that ran none must not pass
_FLOORS = {"n": 0, "s": 0, "k": 0, "max_arity": 0, "trials": 1}


def _check_counts(args):
    """Reject a size flag of the command below its floor."""
    for flag, floor in _FLOORS.items():
        value = getattr(args, flag, floor)
        if value < floor:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= {floor}, got {value}")


def _emit(args, text: str):
    if args.output == "-":
        sys.stdout.write(text + "\n")
        return
    try:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc


# the exponent of a decimal in exponent form, as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


def _t_value(args) -> Fraction | None:
    """The exact rational given by --t, or None when t stays symbolic."""
    if args.t is None or args.t == "sym":
        return None
    for part in args.t.split("/"):
        digits = sum(ch.isdigit() for ch in part)
        exponent = _EXPONENT.search(part)
        if exponent and digits <= COUNT_DIGITS:
            # Fraction builds 10^|e| exactly, so its |e| digits count too
            digits = sum(ch.isdigit() for ch in part[: exponent.start()])
            digits += abs(int(exponent.group(1)))
        if digits > COUNT_DIGITS:
            # Python reads no int of more digits
            raise TooLarge(f"--t has a number of {digits} digits; at most {COUNT_DIGITS} are read")
    try:
        return Fraction(args.t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError(f"--t must be 'sym' or an exact rational, got {args.t!r}") from exc


def _read_expr(args) -> str:
    if args.file:
        try:
            with open(args.expr) as handle:
                return handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.expr}: {exc.strerror}") from exc
    return args.expr


def _eval_expr(args, field):
    """The expression's ``category.Morphism``: parsed, evaluated over Q[t],
    then --t substituted if given."""
    from .dsl import eval_formal, parse, parse_program

    text = _read_expr(args)
    term = parse_program(text, field) if args.file else parse(text, field)
    value = _t_value(args)
    morphism = eval_formal(term, field)
    return morphism if value is None else morphism.evaluate(value)


def _morphism_json(m) -> dict:
    return {
        "q": str(m.field),
        "s": m.s,
        "k": m.k,
        "terms": [
            {"coeff": str(coeff), "rel": rel.to_json()} for rel, coeff in m.sorted_terms()
        ],
    }


def cmd_eval(args) -> int:
    field = parse_q(args.q)
    morphism = _eval_expr(args, field)
    if args.format == "json":
        _emit(args, json.dumps(_morphism_json(morphism), sort_keys=True))
    else:
        _emit(args, morphism.to_text())
    return 0


def cmd_specialize(args) -> int:
    from .concrete import specialize
    from .poly import check_digits

    field = parse_q(args.q)
    morphism = _eval_expr(args, field)
    if args.t == "sym" and any(c.degree() > 0 for c in morphism.terms.values()):
        raise RequiresEvaluation(
            "expression has symbolic t coefficients but --t sym was requested; "
            "drop --t to substitute t = q^n"
        )
    mat = specialize(morphism, args.n).mat
    values = mat.vec().values()
    # one digit check for the matrix, on its largest numerator and denominator
    check_digits(max(map(abs, map(attrgetter("numerator"), values)), default=0),
                 max(map(attrgetter("denominator"), values), default=1))
    entries = mat.entries_sorted()
    if set(map(type, values)) != {int}:
        # an exact rational for JSON: an int when it is one, else its text
        entries = [(r, c, v.numerator if v.denominator == 1 else str(v)) for r, c, v in entries]
    payload = {"q": str(field), "n": args.n, "s": morphism.s, "k": morphism.k, "entries": entries}
    _emit(args, json.dumps(payload, sort_keys=True))
    return 0


# each suite by name: its runner in the ``suites`` module, called with the
# flags it reads
SUITES = {
    "axioms": lambda s, F, a: s.suite_axioms(F, a.n),
    "lemmas": lambda s, F, a: s.suite_lemmas(F, a.n, a.seed),
    "functor": lambda s, F, a: s.suite_functor(F, a.n, a.trials, a.seed, a.max_arity),
    "relinfty": lambda s, F, a: s.suite_relinfty(F, a.n, a.trials, a.seed, a.max_arity),
    "knop": lambda s, F, a: s.suite_knop(F, a.trials, a.seed, a.max_arity),
}


def cmd_verify(args) -> int:
    from . import suites

    field = parse_q(args.q)
    results = SUITES[args.suite](suites, field, args)
    passed = all(r.passed for r in results)
    if args.format == "json":
        _emit(args, json.dumps(
            {
                "suite": args.suite,
                "pass": passed,
                "checks": [{"name": r.name, "pass": r.passed, "detail": r.detail} for r in results],
            },
            sort_keys=True,
        ))
    else:
        lines = [r.line() for r in results]
        lines.append(f"{'PASS' if passed else 'FAIL'} suite {args.suite}")
        _emit(args, "\n".join(lines))
    return 0 if passed else 1


def cmd_gram(args) -> int:
    from . import category as cat
    from .matrix import subspace_count
    from .poly import DET_POLY_GUARD, PolyQ, det_poly, rational_roots

    field = parse_q(args.q)
    value = _t_value(args)
    count = subspace_count(field, args.s + args.k)
    if count > DET_POLY_GUARD:
        raise TooLarge(f"gram: {count} relations; det_poly expands at most {DET_POLY_GUARD}")
    rels, mat = cat.gram(field, args.s, args.k)
    if value is not None:
        mat = [[PolyQ.const(entry.evaluate(value)) for entry in row] for row in mat]
    det = det_poly(mat)
    roots = [] if det.is_zero() else rational_roots(det)
    if args.format == "json":
        payload = {
            "q": str(field),
            "s": args.s,
            "k": args.k,
            "relations": [r.to_text() for r in rels],
            "matrix": [[str(entry) for entry in row] for row in mat],
            "det": str(det),
            "rational_roots": [str(r) for r in roots],
        }
        _emit(args, json.dumps(payload, sort_keys=True))
    else:
        lines = [f"basis ({len(rels)} relations):"]
        lines += [f"  {r.to_text()}" for r in rels]
        lines.append("gram matrix:")
        lines += ["  [" + ", ".join(str(entry) for entry in row) + "]" for row in mat]
        lines.append(f"det = {det}")
        lines.append("rational roots: " + (", ".join(map(str, roots)) if roots else "(none)"))
        _emit(args, "\n".join(lines))
    return 0


def cmd_count(args) -> int:
    from .matrix import subspace_count

    field = parse_q(args.q)
    count = subspace_count(field, args.s + args.k)
    if args.format == "json":
        _emit(args, json.dumps({"q": str(field), "s": args.s, "k": args.k, "count": count}))
    else:
        _emit(args, str(count))
    return 0


def cmd_knop_convert(args) -> int:
    from .dsl import parse
    from .terms import RelLit

    field = parse_q(args.q)
    term = parse(args.rel, field)
    if not isinstance(term, RelLit):
        raise ParseError("knop-convert expects a single rel(...) literal", 0)
    converted = term.rel.perp()
    _emit(args, converted.to_text())
    return 0


# Every flag of every subcommand, defined once; COMMANDS gives each
# subcommand the ones its cmd_* reads.
FLAGS = {
    "expr": dict(help="expression text, or a path with --file"),
    "suite": dict(choices=SUITES),
    "rel": dict(help="a rel(q;s,k;[[...]]) literal"),
    "--file": dict(action="store_true", help="treat expr as a file of bindings"),
    "--q": dict(default="2", help="field order, 'p' or 'p^e' (default 2)"),
    "--t": dict(
        help="'sym' or an exact rational value for t; unset means symbolic, "
        "except that specialize substitutes t = q^n"
    ),
    "--n": dict(type=int, default=1, help="specialization rank"),
    "--s": dict(type=int, default=1, help="source arity"),
    "--k": dict(type=int, default=1, help="target arity"),
    "--seed": dict(type=int, default=0, help="seed for randomized checks"),
    "--trials": dict(type=int, default=100),
    "--max-arity": dict(type=int, default=3),
    "--format": dict(choices=["text", "json"], default="text"),
    "--output": dict(default="-", help="output path, '-' for stdout"),
}

# (name, function, help, flags, defaults that differ from FLAGS)
COMMANDS = (
    ("eval", cmd_eval, "evaluate an expression to a canonical morphism",
     ("expr", "--file", "--q", "--t", "--format", "--output"), {}),
    ("specialize", cmd_specialize, "evaluate and specialize to a rank-n matrix",
     ("expr", "--file", "--q", "--t", "--n", "--format", "--output"), {}),
    ("verify", cmd_verify, "run a verification suite",
     ("suite", "--q", "--n", "--seed", "--trials", "--max-arity", "--format", "--output"), {}),
    ("gram", cmd_gram, "Gram matrix, determinant, and rational roots",
     ("--s", "--k", "--q", "--t", "--format", "--output"), {"s": 0}),
    ("count", cmd_count, "dimension of the Hom space [s] -> [k]",
     ("--s", "--k", "--q", "--format", "--output"), {}),
    ("knop-convert", cmd_knop_convert,
     "convert a relation literal between the two basis indexings (the "
     "conversion is the orthogonal complement, an involution)",
     ("rel", "--q", "--format", "--output"), {}),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The relcat parser, built once per process on first use."""
    top = argparse.ArgumentParser(
        prog="relcat",
        description="exact calculus of subspace relations, their interpolation "
        "category, and its specializations to finite-rank matrix representations",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, fn, text, flags, defaults in COMMANDS:
        # no prefix matching, or verify would read --t as --trials
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=fn, **defaults)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # the parser and eval_formal take one frame per nesting level
        print(f"error: the expression nests deeper than the recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return 3
    except RelcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
