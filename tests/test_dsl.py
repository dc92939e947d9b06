"""Expression language: parsing, typing, printing, and the two
evaluation paths."""

import random
import sys
from fractions import Fraction

import pytest

from relcat import category as cat
from relcat import terms as tm
from relcat.concrete import specialize
from relcat.dsl import eval_formal, parse, parse_program
from relcat.errors import (
    ArityMismatch,
    FieldMismatch,
    ParseError,
    ScalarParseError,
    UnknownGenerator,
)
from relcat.field import Fq
from relcat.frobenius import frobenius_axiom_terms, standard_target, term_eval
from relcat.matrix import MatFq
from relcat.poly import PolyQ
from relcat.relations import Relation, random_relation
from relcat.suites import mu_lemma_terms
from relcat.terms import to_text

F2, F3, F4 = Fq(2), Fq(3), Fq(2, 2)


def test_parse_simple_compose():
    term = parse("m . m*", F2)
    assert (term.dom, term.cod) == (1, 1)


def test_parse_unit_from_counit_and_cup():
    term = parse("(eps* @ id(1)) . coev", F2)
    assert (term.dom, term.cod) == (0, 1)
    assert eval_formal(term, F2) == cat.generator(F2, "eps")


def test_parse_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse("m . z", F2)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("m . ", F2)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("m .. m*", F2)
    with pytest.raises(ParseError):
        parse("(m", F2)


def test_parse_unknown_name():
    with pytest.raises(ParseError):
        parse("foo . m", F2)
    with pytest.raises(UnknownGenerator):
        tm.Gen("foo")


def test_rel_literal_field_mismatch():
    with pytest.raises(FieldMismatch):
        parse("rel(3;1,1;[[1,1]])", F2)


def test_parse_precedence():
    # '.' binds tighter than '@': a @ b . c is a @ (b . c)
    term = parse("eps* @ m . m*", F2)
    assert isinstance(term, tm.Tensor)
    assert isinstance(term.right, tm.Compose)
    # '@' binds tighter than '+'
    term = parse("1 * eps* @ z* + 2 * z* @ eps*", F2)
    assert isinstance(term, tm.LinComb) and len(term.parts) == 2


def test_parse_scalar_prefixes():
    term = parse("t * rel(2;0,0;[])", F2)
    assert isinstance(term, tm.LinComb)
    assert term.parts[0][0] == PolyQ.t_power(1)
    term = parse("3/2*t^2 * id(1)", F2)
    assert term.parts[0][0] == PolyQ.t_power(2, Fraction(3, 2))
    term = parse("(3/2*t^2 - 1) * id(1)", F2)
    assert term.parts[0][0] == PolyQ({2: Fraction(3, 2), 0: -1})


def test_parse_rejects_negative_powers_and_zero_denominators():
    for src in ("t^-1 * id(1)", "(1 + t^-2) * id(1)", "2 * t^-1 * id(1)", "1/0 * id(1)"):
        with pytest.raises(ScalarParseError):
            parse(src, F2)


def test_parse_minus_folds_into_coefficient():
    term = parse("id(1) - mu(1)", F3)
    assert isinstance(term, tm.LinComb)
    assert term.parts[1][0] == PolyQ.const(-1)
    assert eval_formal(term, F3).is_zero()


def test_mu_literal():
    term = parse("muM(2;[[1,0],[1,1]])", F3)
    assert (term.dom, term.cod) == (2, 2)
    assert eval_formal(term, F3) == cat.mu_morphism(MatFq.from_rows(F3, [[1, 0], [1, 1]]))
    zero_rows = parse("muM(2;[])", F3)
    assert (zero_rows.dom, zero_rows.cod) == (2, 0)


def test_print_parse_fixpoint_on_samples():
    samples = [
        "m . m*",
        "eps* @ id(2)",
        "(eps* @ id(1)) . coev",
        "t * rel(2;0,0;[]) + 2 * rel(2;0,0;[])",
        "(3/2*t^2 - 1) * id(1)",
        "mu(1) . mu(0)",
        "muM(2;[[1,1]])",
        "sigma . (z @ z)",
        "z* @ ev",
    ]
    for text in samples:
        term = parse(text, F2)
        assert parse(to_text(term), F2) == term


def _random_term(rng, field, depth=3):
    atoms = [
        tm.Gen("m"), tm.Gen("m*"), tm.Gen("eps"), tm.Gen("eps*"), tm.Gen("sigma"),
        tm.Gen("z"), tm.Gen("z*"), tm.Gen("plus"), tm.Gen("ev"), tm.Gen("coev"),
        tm.Gen("mu", rng.randrange(field.q)), tm.IdK(rng.randrange(3)),
        tm.RelLit(random_relation(rng, field, rng.randrange(2), rng.randrange(2))),
        tm.MuLit(MatFq(field, 1, 2, [rng.randrange(field.q), rng.randrange(field.q)])),
    ]
    if depth == 0:
        return rng.choice(atoms)
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(atoms)
    if kind == 1:
        left = _random_term(rng, field, depth - 1)
        right = _random_term(rng, field, depth - 1)
        return tm.Tensor(left, right)
    if kind == 2:
        right = _random_term(rng, field, depth - 1)
        left = _random_term(rng, field, depth - 1)
        try:
            return tm.Compose(left, right)
        except ArityMismatch:
            return tm.Tensor(left, right)
    coeff = PolyQ({rng.randrange(2): Fraction(rng.randrange(1, 5), rng.randrange(1, 3))})
    sub = _random_term(rng, field, depth - 1)
    return tm.LinComb([(coeff, sub)])


def test_print_parse_fixpoint_random():
    rng = random.Random(60)
    for _ in range(200):
        field = rng.choice([F2, F3])
        term = _random_term(rng, field)
        assert parse(to_text(term), field) == term


def test_eval_is_structural():
    rng = random.Random(61)
    for _ in range(100):
        field = rng.choice([F2, F3])
        a = _random_term(rng, field, 2)
        b = _random_term(rng, field, 2)
        assert eval_formal(tm.Tensor(a, b), field) == cat.tensor(
            eval_formal(a, field), eval_formal(b, field)
        )
        if a.dom == b.cod:
            assert eval_formal(tm.Compose(a, b), field) == cat.compose(
                eval_formal(a, field), eval_formal(b, field)
            )


def test_eval_examples():
    assert eval_formal(parse("mu(1)", F3), F3) == cat.identity(F3, 1)
    loop = eval_formal(parse("eps* . eps", F2), F2)
    assert loop == Morphism_scalar(F2, PolyQ.t_power(1))
    assert eval_formal(parse("plus . (z @ id(1))", F3), F3) == cat.identity(F3, 1)
    assert eval_formal(parse("plus . (id(1) @ z)", F3), F3) == cat.identity(F3, 1)


def Morphism_scalar(field, coeff):
    return cat.Morphism(field, 0, 0, {Relation.zero_space(field, 0, 0): coeff})


def test_evaluate_after_formal_evaluation():
    loop = eval_formal(parse("eps* . eps", F2), F2).evaluate(4)
    assert loop == Morphism_scalar(F2, PolyQ.const(4))


def test_two_evaluation_paths_commute():
    # specializing the formal value equals evaluating in the standard target
    rng = random.Random(62)
    n = 1
    for _ in range(150):
        field = rng.choice([F2, F3])
        term = _random_term(rng, field, 2)
        if field.q ** (n * max(term.dom, term.cod, 1)) > 2**10:
            continue
        formal = specialize(eval_formal(term, field), n)
        concrete = term_eval(standard_target(field, n), term, t_value=Fraction(field.q) ** n)
        assert formal.mat == concrete, to_text(term)


def test_program_bindings():
    src = "cap := eps* . m ; loop := cap . coev ; loop"
    term = parse_program(src, F2)
    value = eval_formal(term, F2)
    assert value == Morphism_scalar(F2, PolyQ.t_power(1))


def test_program_requires_expression():
    with pytest.raises(ParseError):
        parse_program("  ;  ", F2)


# -- the formal memo -----------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_shared_formal_memo_equals_fresh_memos(field):
    # the suites pass one memo to every pair of a run
    pairs = mu_lemma_terms(field, 0) + mu_lemma_terms(field, 1) + frobenius_axiom_terms(field)
    memo = {}
    for name, lhs, rhs in pairs:
        for term in (lhs, rhs):
            shared = eval_formal(term, field, memo)
            assert shared == eval_formal(term, field, {}) == eval_formal(term, field), name
    # every entry is a subterm's own value
    for term, value in memo.items():
        assert value == eval_formal(term, field)


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_formal_memo_adds_no_frame_per_level():
    # Before the memo, eval_formal took one frame per composition level and
    # accepted a chain of depth limit - (frames below it) - 12 (Python 3.11).
    # A memo through a helper call would take two frames per level and fail
    # at about half this depth.
    depth = sys.getrecursionlimit() - _stack_depth() - 20
    chain = tm.Gen("sigma")
    for _ in range(depth):
        chain = tm.Compose(chain, tm.Gen("sigma"))
    expected = cat.generator(F2, "sigma") if depth % 2 == 0 else cat.identity(F2, 2)
    assert eval_formal(chain, F2) == expected
    assert eval_formal(chain, F2, {}) == expected
