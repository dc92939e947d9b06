"""Concrete structure checker, matrix-action evaluation, and the
generator-level realization of codomain-surjective relations."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from helpers import (
    full_space,
    nonzero_cells,
    reference_fan_and_width,
    reference_standard_target,
    stored_atoms,
    stored_maps,
    to_dense,
    zero_space,
)

from relcat import frobenius, matrix, relations
from relcat import terms as tm
from relcat.concrete import f_r_matrix
from relcat.dsl import parse
from relcat.errors import WORK_BUDGET, MissingUnit, NotRelInfty, ShapeMismatch, TooLarge
from relcat.field import Fq, parse_q
from relcat.frobenius import (
    FrobeniusData,
    _Chain,
    _compile,
    _Kron,
    _Perm,
    check_axioms,
    check_steps,
    frobenius_axiom_terms,
    hat_f,
    rel_matrix,
    standard_target,
    term_eval,
    term_steps,
)
from relcat.matrix import MatFq
from relcat.poly import PolyQ
from relcat.qmat import QMat
from relcat.relations import (
    GENERATOR_ARITIES,
    Relation,
    is_rel_infty,
    mu_relation,
    product,
    random_rel_infty,
    random_relation,
    rel_infty_normal_form,
    star,
)
from relcat.suites import mu_lemma_terms, suite_lemmas

F2, F3, F4 = Fq(2), Fq(3), Fq(2, 2)
G = tm.Gen


def drop_unit(data: FrobeniusData) -> FrobeniusData:
    maps = stored_maps(data)
    del maps[G("eps")]
    return FrobeniusData(data.field, data.dim, maps)


def replaced(data: FrobeniusData, atom, mat: QMat) -> FrobeniusData:
    """The structure with the map of one atom replaced."""
    return FrobeniusData(data.field, data.dim, {**stored_maps(data), atom: mat})


def swap_matrix(d: int) -> QMat:
    """The D^2 x D^2 matrix of sigma: basis i + D j goes to j + D i."""
    return QMat(d * d, d * d, {(j + d * i, i + d * j): 1 for i in range(d) for j in range(d)})


def test_standard_target_maps():
    data = standard_target(F2, 1)
    # merge: v (x) w -> v when v = w, else 0
    assert to_dense(term_eval(data, G("m"))) == [[1, 0, 0, 0], [0, 0, 0, 1]]
    assert to_dense(term_eval(data, G("eps"))) == [[1], [1]]
    assert to_dense(term_eval(data, G("z"))) == [[1], [0]]
    # addition table of F_2: 0+0=0, 0+1=1, 1+0=1, 1+1=0
    assert to_dense(term_eval(data, G("plus"))) == [[1, 0, 0, 1], [0, 1, 1, 0]]


@pytest.mark.parametrize("field,n", [
    (F2, 1), (F3, 1), (F4, 1), (Fq(5), 1), (Fq(7), 1), (Fq(2, 3), 1), (Fq(3, 2), 1),
    (F2, 2), (F3, 2), (F4, 2), (F2, 3),
])
def test_standard_target_maps_match_the_stored_reference(field, n):
    # prime fields, the characteristic-2 and odd tables, and the digitwise maps at n > 1
    reference = reference_standard_target(field, n)
    data = standard_target(field, n)
    assert set(reference) == set(stored_atoms(field))
    for atom, mat in reference.items():
        got = term_eval(data, atom)
        assert (got.rows, got.cols) == (mat.rows, mat.cols), atom
        assert nonzero_cells(got) == nonzero_cells(mat), atom


def test_standard_target_builds_nothing_until_a_map_is_read():
    for q in (911, 1_000_000_007):
        tracemalloc.start()
        try:
            data = standard_target(Fq(q), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.dim == q and peak < 64 * 1024, (q, peak)
    start = time.perf_counter()
    assert to_dense(term_eval(data, parse("eps* . z", data.field))) == [[1]]
    assert time.perf_counter() - start < 0.5
    # a D past the budget at n > 1 is refused, named as q^n and never formed
    with pytest.raises(TooLarge, match=r"^standard target: D = 2\^100000000, "):
        standard_target(F2, 100_000_000)


@pytest.mark.parametrize("field,n", [(F3, 1), (F2, 2)])
def test_stored_maps_compute_each_column_once(field, n):
    # every axiom pair and every lemma reads the stored maps; each column is
    # computed on its first read only, and every atom is read
    data = standard_target(field, n)
    reads, column = [], data.column

    def counted(atom):
        col = column(atom)
        return lambda i: reads.append((atom, i)) or col(i)

    data.column = counted
    pairs = [*frobenius_axiom_terms(field), *mu_lemma_terms(field, seed=1)]
    assert all(cell is None for _, cell in check_axioms(data, pairs))
    assert len(reads) == len(set(reads))
    assert {atom for atom, _ in reads} == set(stored_atoms(field))


def test_guards_count_pairs_and_cells():
    for field in (F2, F3, F4, Fq(5), Fq(7), Fq(2, 3), Fq(43), Fq(47), Fq(53)):
        q = field.q
        assert len(list(frobenius_axiom_terms(field))) == 2 * q * q + 4 * q + 26
    # the golden corpus and the benchmark check axioms and lemmas at these q
    for field in (F2, F3, Fq(5), Fq(7), F4):
        assert standard_target(field, 1).dim == field.q
    assert standard_target(F2, 6).dim == 2**6


@pytest.mark.parametrize("field,n", [(F2, 1), (F3, 1), (F4, 1), (F2, 2)])
def test_standard_target_passes_all_axioms(field, n):
    data = standard_target(field, n)
    results = check_axioms(data, frobenius_axiom_terms(field))
    failed = [(name, cell) for name, cell in results if cell is not None]
    assert not failed, failed
    assert to_dense(term_eval(data, parse("eps* . eps", field))) == [[field.q**n]]


def test_corrupted_scaling_fails_named_check():
    data = standard_target(F2, 1)
    bad = replaced(data, G("mu", 0), term_eval(data, G("mu", 1)))
    assert dict(check_axioms(bad, frobenius_axiom_terms(F2)))["Lin3 mu(0) = z . eps*"] is not None


UNIT_PAIRS = {
    "Fr1 unit left",
    "Fr1 unit right",
    "snake left",
    "snake right",
    "coev = m* . eps",
    "eps = (eps* @ Id) . coev",
}


def _uses_unit(term) -> bool:
    """Whether the term contains eps or coev, the maps built from the unit."""
    stack = [term]
    while stack:
        sub = stack.pop()
        if isinstance(sub, tm.Gen) and sub.name in ("eps", "coev"):
            return True
        if isinstance(sub, (tm.Compose, tm.Tensor)):
            stack += (sub.left, sub.right)
    return False


def test_semi_mode_on_unitless_data(monkeypatch):
    formed = []
    real = frobenius.term_eval

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        formed.append(out)
        return out

    monkeypatch.setattr(frobenius, "term_eval", counting)
    for field, count in ((F2, 36), (F3, 50), (F4, 68)):
        pairs = list(frobenius_axiom_terms(field))
        # a pair that uses the unit uses it on its left side, which is compiled first
        assert all(_uses_unit(lhs) for _, lhs, rhs in pairs if _uses_unit(rhs))
        wanted = [name for name, lhs, rhs in pairs if not (_uses_unit(lhs) or _uses_unit(rhs))]
        semi = drop_unit(standard_target(field, 1))
        formed.clear()
        results = check_axioms(semi, pairs)
        assert all(cell is None for _, cell in results), results
        assert [name for name, _ in results] == wanted
        assert not set(wanted) & UNIT_PAIRS
        assert len(results) == len(pairs) - len(UNIT_PAIRS) == count
        # two maps per checked pair; a skipped pair forms none
        assert len(formed) == 2 * count


def _wrong(mat: QMat) -> QMat:
    """A matrix of the same shape that differs from mat in cell (0, 0)."""
    data = nonzero_cells(mat)
    data[(0, 0)] = data.get((0, 0), 0) + 1
    return QMat(mat.rows, mat.cols, data)


@pytest.mark.parametrize("name", ["m", "m_star", "eps_star", "plus", "z", "mu", "eps"])
def test_each_corrupted_map_fails_a_named_check(name):
    data = standard_target(F3, 1)
    # m_star and eps_star are the aliases of m* and eps*
    atom = G("mu", 2) if name == "mu" else G(name)
    bad = replaced(data, atom, _wrong(term_eval(data, atom)))
    results = check_axioms(bad, frobenius_axiom_terms(F3))
    assert any(cell is not None for _, cell in results), name


def test_semi_mode_never_touches_unit():
    semi = drop_unit(standard_target(F2, 1))
    assert all(cell is None for _, cell in check_axioms(semi, frobenius_axiom_terms(F2)))
    with pytest.raises(MissingUnit):
        term_eval(semi, tm.Gen("coev"))


def test_shape_validation():
    data = standard_target(F2, 1)
    with pytest.raises(ShapeMismatch):
        replaced(drop_unit(data), G("z"), QMat.identity(2))
    with pytest.raises(ShapeMismatch):
        replaced(data, G("mu", 1), QMat.identity(4))
    # every stored atom is required but the unit, and no other atom is stored
    missing = stored_maps(data)
    del missing[G("mu", 1)]
    with pytest.raises(ShapeMismatch):
        FrobeniusData(F2, 2, missing)
    with pytest.raises(ShapeMismatch):
        replaced(data, G("sigma"), swap_matrix(2))


def test_mu_A_eval_is_matrix_action():
    rng = random.Random(50)
    for _ in range(40):
        F = rng.choice([F2, F3])
        data = standard_target(F, 1)
        r, d = rng.randrange(3), rng.randrange(3)
        a = MatFq(F, r, d, [rng.randrange(F.q) for _ in range(r * d)])
        assert term_eval(data, tm.MuLit(a)) == f_r_matrix(mu_relation(a), 1).mat


def test_mu_A_eval_calculus():
    rng = random.Random(51)
    data = standard_target(F2, 2)

    def mu(m):
        return term_eval(data, tm.MuLit(m))

    for _ in range(20):
        l, k, r = (rng.randrange(1, 4) for _ in range(3))
        a = MatFq(F2, k, l, [rng.randrange(2) for _ in range(k * l)])
        b = MatFq(F2, r, k, [rng.randrange(2) for _ in range(r * k)])
        assert mu(b) @ mu(a) == mu(b @ a)


def test_hat_f_composition_and_tensor():
    rng = random.Random(52)
    for _ in range(60):
        F = rng.choice([F2, F3])
        data = standard_target(F, 1)
        s, k, l = (rng.randrange(3) for _ in range(3))
        r1 = random_rel_infty(rng, F, s, k)
        r2 = random_rel_infty(rng, F, k, l)
        sr, d = star(r1, r2)
        assert d == 0
        assert hat_f(data, r2) @ hat_f(data, r1) == hat_f(data, sr)
        r3 = random_rel_infty(rng, F, rng.randrange(3), rng.randrange(3))
        assert hat_f(data, r1).kron(hat_f(data, r3)) == hat_f(data, product(r1, r3))


def test_hat_f_matches_functor():
    rng = random.Random(53)
    for n in (1, 2):
        data = standard_target(F2, n)
        for _ in range(40):
            rel = random_rel_infty(rng, F2, rng.randrange(3), rng.randrange(3))
            assert hat_f(data, rel) == f_r_matrix(rel, n).mat


def test_hat_f_works_without_unit():
    rng = random.Random(54)
    semi = drop_unit(standard_target(F3, 1))
    for _ in range(30):
        rel = random_rel_infty(rng, F3, rng.randrange(3), rng.randrange(3))
        assert hat_f(semi, rel) == f_r_matrix(rel, 1).mat


def test_hat_f_rejects_non_members():
    with pytest.raises(NotRelInfty):
        hat_f(standard_target(F2, 1), zero_space(F2, 1, 1))


def test_hat_f_guard_counts_expansion_work():
    # a 9x9 normal form at D = 4 runs 4^9 columns through 81 strands; the
    # zero relation [20] -> [0] has no rows but still runs 2^20 columns
    # through 20 strands
    data = standard_target(F4, 1)
    big = full_space(F4, 9, 0)
    assert rel_infty_normal_form(big)[1].rows == 9
    assert term_steps(4, frobenius.hat_f_term(big)) == 4**9 * 81 > WORK_BUDGET
    with pytest.raises(TooLarge):
        hat_f(data, big)
    with pytest.raises(TooLarge):
        hat_f(standard_target(F2, 1), zero_space(F2, 20, 0))
    small = full_space(F4, 2, 1)
    assert hat_f(data, small) == f_r_matrix(small, 1).mat


def test_term_eval_examples():
    data = standard_target(F2, 1)
    assert term_eval(data, parse("m . m*", F2)) == QMat.identity(2)
    assert to_dense(term_eval(data, parse("eps* . eps", F2))) == [[2]]
    data3 = standard_target(F3, 1)
    assert to_dense(term_eval(data3, parse("eps* . eps", F3))) == [[3]]


def test_term_eval_needs_unit_only_when_used():
    semi = drop_unit(standard_target(F2, 1))
    assert term_eval(semi, parse("m . m*", F2)) == QMat.identity(2)
    with pytest.raises(MissingUnit):
        term_eval(semi, parse("eps* . eps", F2))
    with pytest.raises(MissingUnit):
        term_eval(semi, parse("coev", F2))


def test_term_eval_matches_functor_on_decompositions():
    rng = random.Random(55)
    for _ in range(200):
        F = rng.choice([F2, F3])
        n = 1
        rel = random_relation(rng, F, rng.randrange(3), rng.randrange(3))
        term = tm.decompose_generators(rel)
        assert term_eval(standard_target(F, n), term) == f_r_matrix(rel, n).mat


def test_rel_matrix_dispatch():
    data = standard_target(F2, 1)
    rel = zero_space(F2, 1, 1)
    assert to_dense(rel_matrix(data, rel)) == [[1, 1], [1, 1]]
    semi = drop_unit(data)
    with pytest.raises(MissingUnit):
        rel_matrix(semi, rel)
    surjective = Relation.from_rows(F2, 1, 1, [[1, 1]])
    assert rel_matrix(semi, surjective) == QMat.identity(2)
    # hat_f's normal form decides surjectivity; the other path needs the unit
    rng = random.Random(57)
    for _ in range(40):
        F = rng.choice([F2, F3])
        rel = random_relation(rng, F, rng.randrange(3), rng.randrange(3))
        data, semi = standard_target(F, 1), drop_unit(standard_target(F, 1))
        assert rel_matrix(data, rel) == f_r_matrix(rel, 1).mat
        if is_rel_infty(rel):
            assert rel_matrix(semi, rel) == f_r_matrix(rel, 1).mat
        else:
            with pytest.raises(MissingUnit):
                rel_matrix(semi, rel)


def test_unit_path_guard_counts_fan_out():
    # each of the three coev caps fans a column out 8-fold: 8^6 * 21 steps,
    # which ran about 5 s unguarded
    rel = Relation.from_rows(F2, 3, 3, [[1, 0, 0, 0, 0, 1], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 0]])
    assert not is_rel_infty(rel)
    assert term_steps(8, tm.decompose_generators(rel)) == 8**6 * 21 > WORK_BUDGET
    data = standard_target(F2, 3)
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        rel_matrix(data, rel)
    assert time.perf_counter() - start < 1.0


def test_rel_matrix_reduces_once_then_reads_the_cache(monkeypatch):
    data = standard_target(F3, 1)
    rel = Relation.from_rows(F3, 2, 1, [[1, 1, 1]])
    calls = []
    real = matrix.row_reduce

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matrix, "row_reduce", counting)
    monkeypatch.setattr(relations, "row_reduce", counting)
    first = rel_matrix(data, rel)
    assert len(calls) == 1
    assert rel_matrix(data, rel) == first
    assert len(calls) == 1
    assert first == f_r_matrix(rel, 1).mat


def test_term_eval_with_scalars():
    data = standard_target(F2, 1)
    term = parse("2 * (m . m*) + 1 * id(1)", F2)
    assert term_eval(data, term) == QMat.identity(2).scale(3)
    sym = parse("t * id(1)", F2)
    from relcat.errors import RequiresEvaluation

    with pytest.raises(RequiresEvaluation):
        term_eval(data, sym)
    assert term_eval(data, sym, t_value=Fraction(2)) == QMat.identity(2).scale(2)


# -- the compiled evaluator against a dense reference ---------------------------


def dense(data, term, t_value):
    """The matrix of a term built from the structure's stored maps by @ and kron."""
    D = data.dim
    if isinstance(term, tm.Gen):
        if term.name not in ("sigma", "ev", "coev", "z*"):
            return term_eval(data, term)  # a stored map, read as it is stored
        ev = term_eval(data, G("eps*")) @ term_eval(data, G("m"))
        defined = {"sigma": swap_matrix(D), "ev": ev,
                   "coev": term_eval(data, G("m*")) @ term_eval(data, G("eps")),
                   "z*": ev @ QMat.identity(D).kron(term_eval(data, G("z")))}
        return defined[term.name]
    if isinstance(term, tm.IdK):
        return QMat.identity(D**term.k)
    if isinstance(term, tm.MuLit):
        return dense(data, tm.mu_matrix_term(term.mat), t_value)
    if isinstance(term, tm.RelLit):
        rel = term.rel
        if not is_rel_infty(rel):
            return dense(data, tm.decompose_generators(rel), t_value)
        a, ap = rel_infty_normal_form(rel)
        cap = QMat.identity(D**rel.k)
        for _ in range(ap.rows):
            cap = cap.kron(dense(data, tm.Gen("z*"), t_value))
        return cap @ dense(data, tm.mu_matrix_term(a.vstack(ap)), t_value)
    if isinstance(term, tm.Compose):
        return dense(data, term.left, t_value) @ dense(data, term.right, t_value)
    if isinstance(term, tm.Tensor):
        return dense(data, term.left, t_value).kron(dense(data, term.right, t_value))
    out = QMat.zero(D**term.cod, D**term.dom)
    for coeff, sub in term.parts:
        out = out.add(dense(data, sub, t_value).scale(coeff.evaluate(t_value)))
    return out


def random_term(rng, field, dom, cod, depth):
    """A well-typed random term [dom] -> [cod] with at most two strands between factors.

    Relation literals stay at two strands: the dense reference of one that is
    not codomain-surjective expands its basis into a wide tensor power.
    """
    kind = rng.choice(("leaf", "leaf", "compose", "tensor", "lincomb") if depth else ("leaf",))
    if kind == "compose":
        mid = rng.randrange(3)
        left = random_term(rng, field, mid, cod, depth - 1)
        return tm.Compose(left, random_term(rng, field, dom, mid, depth - 1))
    if kind == "tensor" and dom + cod > 0:
        d1, c1 = rng.randrange(dom + 1), rng.randrange(cod + 1)
        return tm.Tensor(
            random_term(rng, field, d1, c1, depth - 1),
            random_term(rng, field, dom - d1, cod - c1, depth - 1),
        )
    if kind == "lincomb":
        parts = [
            (PolyQ({0: rng.randrange(-3, 4), 1: rng.randrange(3)}),
             random_term(rng, field, dom, cod, depth - 1))
            for _ in range(rng.randrange(1, 3))
        ]
        return tm.LinComb(parts)
    leaves = ["mulit"] + ["rellit"] * (dom + cod <= 2)
    gens = [name for name, arity in GENERATOR_ARITIES.items() if arity == (dom, cod)]
    leaves += ["gen"] * 2 * bool(gens) + ["id"] * 2 * (dom == cod)
    leaf = rng.choice(leaves)
    if leaf == "gen":
        name = rng.choice(gens)
        return tm.Gen(name, rng.randrange(field.q) if name == "mu" else None)
    if leaf == "id":
        return tm.IdK(dom)
    if leaf == "mulit":
        return tm.MuLit(MatFq(field, cod, dom, [rng.randrange(field.q) for _ in range(dom * cod)]))
    return tm.RelLit(random_relation(rng, field, dom, cod))


def node_kinds(term):
    if isinstance(term, (tm.Compose, tm.Tensor)):
        return {type(term).__name__} | node_kinds(term.left) | node_kinds(term.right)
    if isinstance(term, tm.LinComb):
        return {"LinComb"}.union(*(node_kinds(sub) for _, sub in term.parts))
    return {type(term).__name__}


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_term_eval_matches_dense_reference(field):
    rng = random.Random(60 + field.q)
    data = standard_target(field, 1)
    kinds = set()
    for trial in range(60):
        dom, cod = rng.randrange(3), rng.randrange(3)
        term = random_term(rng, field, dom, cod, 4)
        t_value = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
        kinds |= node_kinds(term)
        assert term_eval(data, term, t_value=t_value) == dense(data, term, t_value), (trial, term)
    assert kinds == {"Gen", "IdK", "MuLit", "RelLit", "Compose", "Tensor", "LinComb"}


def test_mu_literal_compiles_once_and_builds_no_expansion(monkeypatch):
    expanded, built = [], []
    real_expand, real_build = tm.mu_matrix_term, frobenius._build_mu

    def counting_expand(mat):
        expanded.append(mat)
        return real_expand(mat)

    def counting_build(data, mat, t_value):
        built.append((mat, t_value))
        return real_build(data, mat, t_value)

    monkeypatch.setattr(tm, "mu_matrix_term", counting_expand)
    monkeypatch.setattr(frobenius, "_build_mu", counting_build)
    results = suite_lemmas(F3, seed=7)
    assert all(r.passed for r in results)
    # the suite checks on one structure: each literal compiles once there
    assert built and len(built) == len(set(built))
    assert any(mat.rows and mat.cols for mat, _ in built)
    # and a nonempty one from its matrix, with no expansion term
    assert all(not (mat.rows and mat.cols) for mat in expanded), expanded


def scrambled(rng, field, dim):
    """A structure whose maps are random small-int and Fraction matrices of
    the right shapes, with several entries in most columns."""
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    atoms = [G(name) for name in ("m", "m*", "eps*", "plus", "z", "eps")]
    atoms += [G("mu", a) for a in field.elements()]
    maps = {}
    for atom in atoms:
        rows, cols = dim**atom.cod, dim**atom.dom
        cells = {(r, c): rng.choice(values) for r in range(rows) for c in range(cols)
                 if rng.random() < 0.6}
        maps[atom] = QMat(rows, cols, cells)
    return FrobeniusData(field, dim, maps)


@pytest.mark.parametrize("field,dim", [(F2, 3), (F3, 2)])
def test_term_eval_matches_dense_reference_on_scrambled_maps(field, dim):
    rng = random.Random(40 + field.q)
    data = scrambled(rng, field, dim)
    assert any(len(col) > 1 for mat in stored_maps(data).values() for col in mat.columns())
    empty = [tm.MuLit(MatFq(field, 0, 2, [])), tm.MuLit(MatFq(field, 2, 0, [])),
             tm.MuLit(MatFq(field, 0, 0, []))]
    terms = empty + [tm.Compose(empty[1], empty[0]), tm.Tensor(empty[0], G("m"))]
    terms += [random_term(rng, field, rng.randrange(3), rng.randrange(3), 4) for _ in range(40)]
    kinds = set()
    for trial, term in enumerate(terms):
        t_value = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
        kinds |= node_kinds(term)
        assert term_eval(data, term, t_value=t_value) == dense(data, term, t_value), (trial, term)
    assert kinds == {"Gen", "IdK", "MuLit", "RelLit", "Compose", "Tensor", "LinComb"}


@pytest.mark.parametrize("field", [F2, F3])
def test_shared_memo_first_difference_equals_independent_evaluations(field):
    rng = random.Random(30 + field.q)
    axioms, lemmas = list(frobenius_axiom_terms(field)), list(mu_lemma_terms(field, seed=3))
    target = standard_target(field, 1)
    # a corrupted scaling keeps the target's one-entry columns, so the wide
    # lemma sides stay cheap while many pairs differ; a scrambled structure
    # makes every column dense, so it checks the axioms only
    corrupted = replaced(target, G("mu", 1), term_eval(target, G("mu", 0)))
    cases = [(target, axioms + lemmas), (corrupted, axioms + lemmas),
             (scrambled(rng, field, 2), axioms)]
    for data, pairs in cases:
        cells = []
        for name, lhs, rhs in pairs:
            cell = frobenius.first_difference(data, lhs, rhs)
            assert cell == term_eval(data, lhs).first_difference(term_eval(data, rhs)), name
            cells.append(cell)
        assert any(cells) == (data is not target)


def test_kept_columns_stay_with_their_structure_and_t_value():
    # one term object evaluated alternately on three structures at two t
    # values; each result equals the same evaluation on a fresh structure,
    # so no node's kept columns leak between structures or t values
    rng = random.Random(71)
    target = standard_target(F3, 1)
    makers = [
        lambda: standard_target(F3, 1),
        lambda: replaced(standard_target(F3, 1), G("mu", 1), term_eval(target, G("mu", 2))),
        lambda: scrambled(random.Random(72), F3, 2),
    ]
    # v -> v + 2v on the target, and v -> 2v + 2v once mu(1) scales by 2
    shared = tm.t_compose(G("plus"), tm.MuLit(MatFq(F3, 2, 2, [1, 0, 0, 2])), G("m*"))
    term = tm.LinComb([(PolyQ({1: 1}), tm.t_compose(shared, shared)), (2, shared)])
    terms = [term] + [random_term(rng, F3, 1, 1, 4) for _ in range(4)]
    structures = [make() for make in makers]
    results = {}
    for _ in range(2):
        for t_value in (Fraction(2), Fraction(-1, 2)):
            for k, (make, data) in enumerate(zip(makers, structures)):
                for j, sub in enumerate(terms):
                    got = term_eval(data, sub, t_value)
                    assert got == term_eval(make(), sub, t_value), (k, j, t_value)
                    results[k, j, t_value] = got
    # the structures and the t values do tell the results apart
    firsts = [results[k, 0, t] for k in range(3) for t in (Fraction(2), Fraction(-1, 2))]
    assert all(a != b for a, b in itertools.combinations(firsts, 2))


def test_pair_order_does_not_change_the_cells():
    # the corrupted scaling makes many cells differ; the reversed runs read
    # columns the forward run kept, and a fresh structure keeps none yet
    target = standard_target(F2, 1)
    pairs = [*frobenius_axiom_terms(F2), *mu_lemma_terms(F2, seed=3)]

    def corrupted():
        return replaced(target, G("mu", 1), term_eval(target, G("mu", 0)))

    def cells(data, pairs):
        return [(name, frobenius.first_difference(data, lhs, rhs)) for name, lhs, rhs in pairs]

    data = corrupted()
    forward = check_axioms(data, pairs)
    assert forward == cells(data, pairs) and any(cell for _, cell in forward)
    assert check_axioms(data, pairs[::-1])[::-1] == forward
    assert cells(data, pairs[::-1])[::-1] == forward
    assert check_axioms(corrupted(), pairs[::-1])[::-1] == forward


def compiled_nodes(node):
    """Every node reachable from a compiled node, itself included."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, _Chain):
            stack += [node.first, *node.rest]
        elif isinstance(node, _Kron):
            stack += [node for node, _, _, _ in node.factors]
        elif isinstance(node, frobenius._Whisker):
            stack.append(node.node)
        elif isinstance(node, frobenius._LinComb):
            stack += [sub for _, sub in node.parts]
    return out


def test_roots_and_tensor_nodes_keep_no_columns():
    terms = [side for _, lhs, rhs in mu_lemma_terms(F3, seed=5) for side in (lhs, rhs)]
    terms.append(frobenius.hat_f_term(random_rel_infty(random.Random(8), F3, 2, 2)))
    kept = krons = 0
    for term in terms:
        # a fresh structure, so that no earlier term has made the root a subterm
        data = standard_target(F3, 1)
        term_eval(data, term)
        root = _compile(data, term, None)
        # a stored map keeps its columns, as a root too; chains and combinations
        # keep theirs below the root only
        if isinstance(root, (_Chain, frobenius._LinComb)):
            assert dict(root) == {}, term
        for node in compiled_nodes(root):
            if isinstance(node, _Kron):
                krons += 1
                assert not isinstance(node, dict) and not hasattr(node, "__dict__")
            elif node is not root and isinstance(node, (_Chain, frobenius._LinComb)):
                kept += bool(dict(node))
    # the walk met tensor nodes, and chain nodes below a root that kept columns
    assert krons and kept


def test_chain_reads_compute_each_column_once(monkeypatch):
    # every node answers node[j]; a chain keeps the column it computes, so a
    # second read at the index computes nothing
    data = standard_target(F3, 1)
    chain = _compile(data, tm.t_compose(G("m"), G("sigma"), G("m*")), None)
    assert isinstance(chain, _Chain)
    calls = []
    real = _Chain.compute
    monkeypatch.setattr(_Chain, "compute", lambda self, i: calls.append(i) or real(self, i))
    first = chain[2]
    assert chain[2] is first and calls == [2] and dict(chain) == {2: first}
    assert first == {2: 1}


def test_deep_composite_evaluates():
    # a chain deeper than the interpreter's recursion limit: hashing, compiling
    # and evaluating it all walk it without recursion
    data = standard_target(F2, 1)
    chain = tm.Gen("sigma")
    for i in range(3000):
        chain = tm.Compose(tm.Gen("sigma"), chain) if i % 2 else tm.Compose(chain, tm.Gen("sigma"))
    assert term_eval(data, chain) == swap_matrix(2)
    assert hash(chain) == hash(tm.Compose(chain.left, chain.right))


# -- permutation runs and tensor chains against the dense reference ------------


def random_perm(rng, k):
    p = list(range(k))
    rng.shuffle(p)
    return p


def non_perm_factor(rng, field, width):
    """A [width] -> [width] term that is not built from sigma and identities alone."""
    g = tm.Gen
    mat = MatFq(field, width, width, [rng.randrange(field.q) for _ in range(width * width)])
    if width == 1:
        return rng.choice([g("mu", rng.randrange(field.q)), tm.t_compose(g("m"), g("m*")),
                           tm.t_compose(g("z"), g("eps*")), tm.MuLit(mat)])
    return rng.choice([tm.t_compose(g("m*"), g("m")), tm.t_compose(g("m*"), g("plus")),
                       tm.t_compose(g("sigma"), g("m*"), g("plus")), tm.MuLit(mat)])


def mixed_chain(rng, field, k, length):
    """Whiskered adjacent swaps on k strands with whiskered non-permutation factors between."""
    factors = []
    for _ in range(length):
        if rng.random() < 0.6:
            factors.append(tm.adjacent_swap_term(rng.randrange(k - 1), k))
        else:
            width = rng.randrange(1, min(k, 2) + 1)
            i = rng.randrange(k - width + 1)
            factors.append(tm.t_tensor(tm.t_id(i), non_perm_factor(rng, field, width),
                                       tm.t_id(k - width - i)))
    return tm.t_compose(*factors)


def tensor_chain(rng, field, strands):
    """A tensor chain of three or four non-identity factors, sometimes with an identity."""
    g = tm.Gen

    def factor():
        pick = rng.choice(["m", "m*", "plus", "sigma", "eps*", "z", "z*", "eps", "mu", "mulit",
                           "perm"])
        if pick == "mu":
            return g("mu", rng.randrange(field.q))
        if pick == "mulit":
            r, c = rng.randrange(3), rng.randrange(1, 3)
            return tm.MuLit(MatFq(field, r, c, [rng.randrange(field.q) for _ in range(r * c)]))
        if pick == "perm":
            return tm.perm_term(random_perm(rng, 2))
        return g(pick)

    while True:
        factors = [factor() for _ in range(rng.choice((3, 4)))]
        if rng.random() < 0.5:
            factors.insert(rng.randrange(len(factors) + 1), tm.t_id(1))
        if sum(f.dom for f in factors) <= strands and sum(f.cod for f in factors) <= strands:
            break
    out = factors[0]
    for f in factors[1:]:
        out = tm.Tensor(out, f)
    return out


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_permutation_runs_match_dense_reference(field):
    rng = random.Random(70 + field.q)
    data = standard_target(field, 1)
    strands = 5 if field.q == 2 else 4
    terms = [tm.reversal_term(k) for k in range(2, strands + 1)]
    terms += [tm.perm_term(random_perm(rng, rng.randrange(2, strands + 1))) for _ in range(8)]
    terms += [mixed_chain(rng, field, rng.randrange(2, strands), rng.randrange(2, 10))
              for _ in range(12)]
    # a run whose composite is the identity, between two other factors
    mu = tm.t_tensor(tm.Gen("mu", field.q - 1), tm.t_id(1))
    swap = tm.adjacent_swap_term(0, 2)
    terms.append(tm.t_compose(tm.Gen("m"), swap, swap, mu))
    for term in terms:
        assert term_eval(data, term) == dense(data, term, None), term


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_tensor_chains_match_dense_reference(field):
    rng = random.Random(80 + field.q)
    data = standard_target(field, 1)
    for _ in range(20):
        term = tensor_chain(rng, field, 4 if field.q == 2 else 3)
        assert term_eval(data, term) == dense(data, term, None), term


def test_runs_and_tensor_chains_compile_to_one_node():
    data = standard_target(F3, 1)
    # a run of two or more permutation factors is one node
    assert isinstance(_compile(data, tm.perm_term([2, 0, 1]), None), _Perm)
    assert isinstance(_compile(data, tm.reversal_term(4), None), _Perm)
    # so is a lone sigma, between two other factors
    chain = _compile(data, tm.t_compose(tm.Gen("m"), tm.Gen("sigma"), tm.Gen("m*")), None)
    assert isinstance(chain, _Chain) and isinstance(chain.rest[0], _Perm)
    # a run that composes to the identity leaves no node
    swap = tm.adjacent_swap_term(0, 2)
    chain = _compile(data, tm.t_compose(tm.Gen("m"), swap, swap, tm.Gen("m*")), None)
    assert len(chain.rest) == 1
    # a tensor chain of non-identity factors is one flat node over all of them
    node = _compile(data, tm.t_tensor(*(tm.Gen("mu", a) for a in range(3))), None)
    assert isinstance(node, _Kron) and len(node.factors) == 3


def test_permutations_compile_bottom_up_to_one_perm():
    data = standard_target(F3, 1)
    sigma, I1 = G("sigma"), tm.t_id(1)

    def compiled(term):
        node = _compile(data, term, None)
        assert term_eval(data, term) == dense(data, term, None), term
        return node

    # a lone sigma, and a tensor of permutations and identities
    assert compiled(sigma).p == [1, 0]
    assert compiled(tm.t_tensor(sigma, I1, sigma)).p == [1, 0, 2, 4, 3]
    assert compiled(tm.t_tensor(I1, tm.perm_term([2, 0, 1]))).p == [0, 3, 1, 2]
    # a run of permutation factors between two other factors is one node
    run = [tm.adjacent_swap_term(0, 3), tm.adjacent_swap_term(1, 3), tm.t_tensor(I1, I1, I1)]
    outer = tm.t_tensor(G("mu", 2), I1, I1)
    chain = compiled(tm.t_compose(outer, *run, outer))
    assert isinstance(chain, _Chain) and len(chain.rest) == 2
    # t_compose applies its last factor first: strand 0 goes to 1, 1 to 2, 2 to 0
    assert chain.rest[0].p == [1, 2, 0]
    assert compiled(tm.t_compose(*run)).p == [1, 2, 0]
    # a run that composes to the identity leaves no node
    assert compiled(tm.t_compose(sigma, sigma)) is frobenius._ID
    chain = compiled(tm.t_compose(G("m"), sigma, tm.t_tensor(I1, I1), sigma, G("m*")))
    assert not any(isinstance(node, _Perm) for node in (chain.first, *chain.rest))
    assert len(chain.rest) == 1


def test_deep_permutation_run_evaluates():
    # two runs of 2000 whiskered swaps each, around a non-permutation factor:
    # the chain nests deeper than the recursion limit
    rng = random.Random(90)
    data = standard_target(F3, 1)
    g = tm.Gen
    middle = tm.t_tensor(g("mu", 2), tm.t_compose(g("m*"), g("plus")))
    chain, before, after = middle, [], []  # swapped strand of each swap, in the order they apply
    for i in range(4000):
        at = rng.randrange(2)
        swap = tm.adjacent_swap_term(at, 3)
        if i % 2:
            chain = tm.Compose(swap, chain)
            after.append(at)
        else:
            chain = tm.Compose(chain, swap)
            before.insert(0, at)
    outer = tm.t_tensor(tm.t_compose(g("m*"), g("m")), g("mu", 2))
    chain = tm.t_compose(outer, chain, outer)

    def run_perm(swapped):
        p = [0, 1, 2]
        for at in swapped:
            p = [at + 1 if j == at else at if j == at + 1 else j for j in p]
        return p

    shallow = tm.t_compose(
        outer, tm.perm_term(run_perm(after)), middle, tm.perm_term(run_perm(before)), outer
    )
    assert term_eval(data, chain) == dense(data, shallow, None)


# -- perm_term's permutation, and transposes folded into scalings --------------


def rebuilt(term):
    """The same term built again by the parser: equal, but carrying no permutation."""
    out = parse(tm.to_text(term), F2)
    assert out == term and hash(out) == hash(term) and tm.to_text(out) == tm.to_text(term)
    assert not isinstance(out, tm.Compose) or out.perm is None
    return out


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_perm_terms_evaluate_as_their_permutation(field):
    # the swap chain that perm_term builds is the permutation arrow, formally
    # and on the standard target; the same chain rebuilt without its
    # permutation goes through star and _fold, on a structure of its own
    from relcat import category as cat
    from relcat.dsl import eval_formal

    with_p, without_p = standard_target(field, 1), standard_target(field, 1)
    carried = 0
    for k in range(2, 6):
        for p in itertools.permutations(range(k)):
            term = tm.perm_term(p)
            carried += isinstance(term, tm.Compose) and term.perm == p
            chain = rebuilt(term)
            formal = eval_formal(term, field)
            assert formal == cat.permutation(field, p) == eval_formal(chain, field), p
            if k < 5 or field.q < 4 or sum(p[:2]) < 2:
                # D^5 = 1024 columns at q = 4: a sample of those keeps the test fast
                assert term_eval(with_p, term) == term_eval(without_p, chain), p
    # every permutation of two or more swaps carries p: all but the identity
    # and the k - 1 adjacent swaps
    assert carried == sum(math.factorial(k) - k for k in range(2, 6))


def test_perm_term_compiles_to_one_perm_and_no_swap():
    p = tm.grid_transpose_perm(5, 5)
    term = tm.perm_term(p)
    data = standard_target(F2, 1)
    node = _compile(data, term, None)
    cache = data._compiled[None]
    assert isinstance(node, _Perm) and node.p == p and list(cache.values()) == [node]
    assert not any(tm.adjacent_swap_term(i, 25) in cache for i in range(24))
    # the rebuilt chain compiles every swap it uses, and folds them to the same _Perm
    other = standard_target(F2, 1)
    assert _compile(other, rebuilt(term), None).p == p
    assert any(tm.adjacent_swap_term(i, 25) in other._compiled[None] for i in range(24))


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_mu_literal_compiles_to_split_scale_add(rows, cols):
    rng = random.Random(10 * rows + cols)
    data = standard_target(F3, 1)
    mat = MatFq(F3, rows, cols, [rng.randrange(3) for _ in range(rows * cols)])
    node = _compile(data, tm.MuLit(mat), None)
    assert isinstance(node, _Chain) and len(node.rest) == 2
    assert not any(isinstance(sub, _Perm) for sub in (node.first, *node.rest))
    # the scaling reads its input digits in the transposed order
    scale = node.rest[0]
    assert isinstance(scale, _Kron) and len(scale.factors) == rows * cols
    assert [weight for _, weight, _, _ in scale.factors] == [
        3 ** (j * rows + i) for i in range(rows) for j in range(cols)
    ]


def folded_terms(rng, field, shapes):
    """Matrix literals of the given shapes, and tensors of scalings after a permutation."""
    g = tm.Gen

    def mu():
        return g("mu", rng.randrange(field.q))

    out = []
    for rows, cols in shapes:
        entries = [rng.randrange(field.q) for _ in range(rows * cols)]
        out.append(tm.MuLit(MatFq(field, rows, cols, entries)))
    out.append(tm.t_compose(tm.t_tensor(mu(), mu()), g("sigma")))
    out.append(tm.t_compose(g("plus"), tm.t_tensor(mu(), mu()), g("sigma"), g("m*")))
    # a factor that takes no strand, and a permutation of three strands
    out.append(tm.t_compose(tm.t_tensor(mu(), g("z"), mu(), mu()), tm.perm_term([2, 0, 1])))
    # a factor of two strands: the permutation stays a node of its own
    out.append(tm.t_compose(tm.t_tensor(g("m"), mu()), tm.perm_term([1, 2, 0])))
    # a run of permutations before the scalings
    out.append(tm.t_compose(tm.t_tensor(mu(), mu(), mu()), tm.adjacent_swap_term(0, 3),
                            tm.perm_term([2, 0, 1])))
    return out


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_folded_scalings_match_dense_reference(field):
    rng = random.Random(50 + field.q)
    data = standard_target(field, 1)
    # the dense reference of a literal forms D^(rows cols) square matrices
    shapes = [(1, 2), (2, 1), (2, 2)] + [(2, 3), (3, 2)] * (field.q < 4)
    for term in folded_terms(rng, field, shapes):
        assert term_eval(data, term) == dense(data, term, None), term


@pytest.mark.parametrize("field,dim", [(F2, 3), (F3, 2)])
def test_folded_scalings_match_dense_reference_on_scrambled_maps(field, dim):
    rng = random.Random(20 + field.q)
    data = scrambled(rng, field, dim)
    # several entries in a scaling's column: the folded _Kron takes its wide path
    scalings = [term_eval(data, G("mu", a)) for a in field.elements()]
    assert any(len(col) > 1 for mat in scalings for col in mat.columns())
    for term in folded_terms(rng, field, [(1, 2), (2, 1), (2, 2)]):
        assert term_eval(data, term) == dense(data, term, None), term


# -- shared builder instances -------------------------------------------------


def test_builders_share_one_instance_per_argument():
    p = [2, 0, 3, 1]
    assert tm.perm_term(p) is tm.perm_term(tuple(p))
    assert tm.adjacent_swap_term(1, 4) is tm.adjacent_swap_term(1, 4)
    assert tm.mstar_it_term(3) is tm.mstar_it_term(3)
    assert tm.plus_it_term(3) is tm.plus_it_term(3)
    assert tm.atom("mu", 2) is tm.atom("mu", 2) and tm.atom("mu", 2) == G("mu", 2)
    a = tm.mu_matrix_term(MatFq(F3, 2, 3, [1, 2, 0, 0, 1, 1]))
    b = tm.mu_matrix_term(MatFq(F3, 2, 3, [2, 2, 1, 0, 0, 1]))
    # add . scale . transpose . split: only the scaling differs
    assert a != b and a.left.left.right != b.left.left.right
    assert a.right is b.right
    assert a.left.right is b.left.right
    assert a.left.left.left is b.left.left.left


def test_builder_cache_is_bounded():
    for p in itertools.islice(itertools.permutations(range(7)), 1000):
        tm.perm_term(p)
    assert tm._perm_term.cache_info().currsize <= tm.BUILDER_CACHE


def cost(term):
    """(dom + unit uses, widest layer), as the term constructors set them."""
    return term.dom + term.units, term.width


def test_widest_layer_counts_expanded_strands():
    rng = random.Random(96)
    for rows, cols in ((0, 2), (2, 0), (1, 3), (3, 1), (3, 2), (3, 3)):
        mat = MatFq(F3, rows, cols, [rng.randrange(3) for _ in range(rows * cols)])
        assert tm.MuLit(mat).width == tm.mu_matrix_term(mat).width, (rows, cols)
    # the widest lemma side, transp_mu_A GL_3: two 9-strand expansions side by side
    lit = tm.MuLit(MatFq.identity(F2, 3))
    side = tm.t_compose(tm.ev_bar_term(3), tm.t_tensor(lit, lit))
    assert side.width == 18 and term_steps(2, side) == 2**6 * 18
    # a map used through its definition is as wide as the definition
    assert G("z*").width == 2 == tm.DEFINED["z*"].width
    combo = tm.LinComb([(1, tm.t_compose(G("m"), G("m*"))), (2, tm.t_id(1))])
    assert combo.width == 2
    # each unit use, eps itself or inside coev, fans the root columns out D-fold
    unit = Relation.from_rows(F3, 2, 2, [[1, 0, 0, 1]])
    term = tm.decompose_generators(unit)
    assert cost(term) == (2 + 2, term.width)
    assert term_steps(3, term) == 3 ** (2 + 2) * term.width
    assert cost(G("coev")) == (1, 2) and cost(combo) == (1, 2)
    # past the bound's bit length the count saturates instead of forming D^100
    assert term_steps(3, tm.t_power(G("eps"), 100)) == WORK_BUDGET + 1


FIELDS = [Fq(2), Fq(3), Fq(2, 2), Fq(5), Fq(7), Fq(2, 3)]


def test_term_costs_match_the_reference_walker():
    # the costs each constructor sets against one walk over the finished tree;
    # the terms are built, none is evaluated
    terms = []
    for field in FIELDS:
        terms += [side for _, lhs, rhs in frobenius_axiom_terms(field) for side in (lhs, rhs)]
        for seed in range(3):
            terms += [side for _, lhs, rhs in mu_lemma_terms(field, seed) for side in (lhs, rhs)]
    rng = random.Random(97)
    for _ in range(120):
        field = rng.choice(FIELDS)
        s, k = rng.randrange(4), rng.randrange(4)
        terms.append(tm.decompose_generators(random_relation(rng, field, s, k)))
        terms.append(frobenius.hat_f_term(random_rel_infty(rng, field, s, k)))
    # a zero coefficient still counts, and a literal with no rows or no columns
    m, eps, coev = G("m"), G("eps"), G("coev")
    terms += [
        tm.LinComb([(0, tm.t_compose(m, tm.t_tensor(eps, tm.t_id(1)))), (1, tm.t_id(1))]),
        tm.LinComb([(1, tm.t_id(2)), (0, tm.t_compose(coev, G("ev")))]),
        tm.LinComb([(0, tm.MuLit(MatFq.identity(F3, 3)))]),
    ]
    terms += [tm.MuLit(MatFq.zeros(F3, r, c)) for r, c in ((0, 0), (0, 3), (3, 0))]
    # the defined maps as the shared atom, as a fresh Gen and as the definition
    for name, definition in tm.DEFINED.items():
        terms += [tm.atom(name), tm.Gen(name), definition]
    for term in terms:
        assert cost(term) == reference_fan_and_width(term), tm.to_text(term)
    assert cost(G("z*")) == (1, 2) and cost(G("ev")) == (2, 2) and cost(coev) == (1, 2)


@pytest.mark.parametrize("q, n, steps", [
    ("43", 1, 2_627_265),
    ("47", 1, 3_421_373),
    ("7^2", 1, 3_872_331),
    ("7", 2, 2_477_007),
    ("2^3", 2, 5_424_584),
    ("53", 1, 4_889_735),
])
def test_axiom_suite_step_totals(q, n, steps):
    # the pair sides plus eps* . eps, as verify axioms charges them
    field = parse_q(q)
    dim = field.q**n
    sides = [side for _, lhs, rhs in frobenius_axiom_terms(field) for side in (lhs, rhs)]
    sides.append(tm.t_compose(G("eps*"), G("eps")))
    assert sum(term_steps(dim, side) for side in sides) == steps
    if steps > WORK_BUDGET:
        with pytest.raises(TooLarge):
            check_steps(dim, sides, "axioms")
    else:
        assert check_steps(dim, sides, "axioms") == steps


def test_check_steps_admits_exactly_the_budget():
    assert check_steps(2, (), "source", WORK_BUDGET) == WORK_BUDGET
    with pytest.raises(TooLarge, match=r"^source: evaluation steps at D = 2, more than "
                                       rf"the work budget of {WORK_BUDGET} steps"):
        check_steps(2, (), "source", WORK_BUDGET + 1)
    # a term's steps count toward the total as well: eps* . eps is 2 steps at D = 2
    dim_term = tm.t_compose(G("eps*"), G("eps"))
    assert check_steps(2, [dim_term], "source", WORK_BUDGET - 2) == WORK_BUDGET
    with pytest.raises(TooLarge):
        check_steps(2, [dim_term], "source", WORK_BUDGET - 1)


# -- the hat_f memo -------------------------------------------------------------


def normal_form_term(rel):
    a, ap = rel_infty_normal_form(rel)
    cap = tm.t_tensor(tm.t_id(rel.k), tm.t_power(tm.Gen("z*"), ap.rows))
    return tm.t_compose(cap, tm.MuLit(a.vstack(ap)))


def test_hat_f_hit_equals_fresh_evaluation():
    rng = random.Random(57)
    for field in (F2, F3, F4):
        data = standard_target(field, 1)
        for _ in range(15):
            rel = random_rel_infty(rng, field, rng.randrange(3), rng.randrange(3))
            first = hat_f(data, rel)
            assert hat_f(data, rel) is first
            assert first == term_eval(standard_target(field, 1), normal_form_term(rel))


def test_hat_f_memo_is_per_structure():
    # mu(2) scales by 2 on the standard target and is the identity on the
    # corrupted one, so the same relation realizes differently on each
    data = standard_target(F3, 1)
    bad = replaced(data, G("mu", 2), term_eval(data, G("mu", 1)))
    rel = mu_relation(MatFq(F3, 1, 1, [2]))
    scaling = term_eval(data, G("mu", 2))
    assert hat_f(data, rel) == scaling
    assert hat_f(bad, rel) == term_eval(bad, normal_form_term(rel)) == QMat.identity(3)
    assert hat_f(data, rel) == scaling


def test_hat_f_memo_still_rejects_non_members():
    data = standard_target(F2, 1)
    hat_f(data, Relation.from_rows(F2, 1, 1, [[1, 1]]))
    rel = zero_space(F2, 1, 1)
    for _ in range(2):
        with pytest.raises(NotRelInfty, match="does not surject onto the codomain block"):
            hat_f(data, rel)
