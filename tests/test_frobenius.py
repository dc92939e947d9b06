"""Concrete structure checker, matrix-action evaluation, and the
generator-level realization of codomain-surjective relations."""

import random
from fractions import Fraction

import pytest

from relcat import category as cat
from relcat import terms as tm
from relcat.concrete import f_r_matrix
from relcat.dsl import parse
from relcat.errors import MissingUnit, NotRelInfty, ShapeMismatch, TooLarge
from relcat.field import Fq
from relcat.frobenius import (
    FrobeniusData,
    _Chain,
    _compile,
    _Kron,
    _Perm,
    check_axioms,
    frobenius_axiom_terms,
    hat_f,
    rel_matrix,
    standard_target,
    term_eval,
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
from relcat.suites import suite_lemmas

F2, F3, F4 = Fq(2), Fq(3), Fq(2, 2)


def drop_unit(data: FrobeniusData) -> FrobeniusData:
    return FrobeniusData(
        data.field, data.dim, data.m, data.m_star, data.eps_star, data.plus, data.z, data.mu, None
    )


def test_standard_target_maps():
    data = standard_target(F2, 1)
    # merge: v (x) w -> v when v = w, else 0
    assert data.m.to_dense() == [[1, 0, 0, 0], [0, 0, 0, 1]]
    assert data.eps.to_dense() == [[1], [1]]
    assert data.z.to_dense() == [[1], [0]]
    # addition table of F_2: 0+0=0, 0+1=1, 1+0=1, 1+1=0
    assert data.plus.to_dense() == [[1, 0, 0, 1], [0, 1, 1, 0]]


def test_guards_count_pairs_and_cells():
    for field in (F2, F3, F4, Fq(5), Fq(7), Fq(2, 3), Fq(43)):
        q = field.q
        assert len(frobenius_axiom_terms(field)) == 2 * q * q + 4 * q + 26
    with pytest.raises(TooLarge):
        frobenius_axiom_terms(Fq(47))
    # the golden corpus and the benchmark check axioms and lemmas at these q
    for field in (F2, F3, Fq(5), Fq(7), F4):
        assert standard_target(field, 1).dim == field.q
    assert standard_target(F2, 6).dim == 2**6
    with pytest.raises(TooLarge):
        standard_target(F2, 7)
    with pytest.raises(TooLarge):
        standard_target(Fq(2, 8), 1)


@pytest.mark.parametrize("field,n", [(F2, 1), (F3, 1), (F4, 1), (F2, 2)])
def test_standard_target_passes_all_axioms(field, n):
    data = standard_target(field, n)
    failed = [(name, cell) for name, cell in check_axioms(data) if cell is not None]
    assert not failed, failed
    assert term_eval(data, parse("eps* . eps", field)).to_dense() == [[field.q**n]]


def test_corrupted_scaling_fails_named_check():
    data = standard_target(F2, 1)
    bad_mu = dict(data.mu)
    bad_mu[0] = data.mu[1]
    bad = FrobeniusData(
        F2, data.dim, data.m, data.m_star, data.eps_star, data.plus, data.z, bad_mu, data.eps
    )
    assert dict(check_axioms(bad))["Lin3 mu(0) = z . eps*"] is not None


UNIT_PAIRS = {
    "Fr1 unit left",
    "Fr1 unit right",
    "snake left",
    "snake right",
    "coev = m* . eps",
    "eps = (eps* @ Id) . coev",
}


def test_semi_mode_on_unitless_data():
    for field, count in ((F2, 36), (F3, 50)):
        results = check_axioms(drop_unit(standard_target(field, 1)))
        assert all(cell is None for _, cell in results), results
        names = {name for name, _ in results}
        assert not names & UNIT_PAIRS
        assert len(results) == len(frobenius_axiom_terms(field)) - len(UNIT_PAIRS) == count


def _wrong(mat: QMat) -> QMat:
    """A matrix of the same shape that differs from mat in cell (0, 0)."""
    data = dict(mat.data)
    data[(0, 0)] = data.get((0, 0), 0) + 1
    return QMat(mat.rows, mat.cols, data)


@pytest.mark.parametrize("name", ["m", "m_star", "eps_star", "plus", "z", "mu", "eps"])
def test_each_corrupted_map_fails_a_named_check(name):
    data = standard_target(F3, 1)
    maps = {
        "m": data.m, "m_star": data.m_star, "eps_star": data.eps_star, "plus": data.plus,
        "z": data.z, "mu": dict(data.mu), "eps": data.eps,
    }
    if name == "mu":
        maps["mu"][2] = _wrong(data.mu[2])
    else:
        maps[name] = _wrong(maps[name])
    results = check_axioms(FrobeniusData(F3, data.dim, **maps))
    assert any(cell is not None for _, cell in results), name


def test_semi_mode_never_touches_unit():
    semi = drop_unit(standard_target(F2, 1))
    assert all(cell is None for _, cell in check_axioms(semi))
    with pytest.raises(MissingUnit):
        term_eval(semi, tm.Gen("coev"))


def test_shape_validation():
    data = standard_target(F2, 1)
    with pytest.raises(ShapeMismatch):
        FrobeniusData(
            F2, 2, data.m, data.m_star, data.eps_star, data.plus, QMat.identity(2), data.mu, None
        )


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
        hat_f(standard_target(F2, 1), Relation.zero_space(F2, 1, 1))


def test_hat_f_guard_counts_expansion_work():
    # an 8x8 normal form at D = 4 takes 4^8 * 64^2 = 2^28 steps; the zero
    # relation [20] -> [0] has no rows but still runs 2^20 columns through
    # 20 strands
    data = standard_target(F4, 1)
    big = Relation.full_space(F4, 8, 0)
    assert rel_infty_normal_form(big)[1].rows == 8
    with pytest.raises(TooLarge):
        hat_f(data, big)
    with pytest.raises(TooLarge):
        hat_f(standard_target(F2, 1), Relation.zero_space(F2, 20, 0))
    small = Relation.full_space(F4, 2, 1)
    assert hat_f(data, small) == f_r_matrix(small, 1).mat


def test_term_eval_examples():
    data = standard_target(F2, 1)
    assert term_eval(data, parse("m . m*", F2)) == QMat.identity(2)
    assert term_eval(data, parse("eps* . eps", F2)).to_dense() == [[2]]
    data3 = standard_target(F3, 1)
    assert term_eval(data3, parse("eps* . eps", F3)).to_dense() == [[3]]


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
        term = cat.decompose_generators(rel)
        assert term_eval(standard_target(F, n), term) == f_r_matrix(rel, n).mat


def test_rel_matrix_dispatch():
    data = standard_target(F2, 1)
    rel = Relation.zero_space(F2, 1, 1)
    assert rel_matrix(data, rel).to_dense() == [[1, 1], [1, 1]]
    semi = drop_unit(data)
    with pytest.raises(MissingUnit):
        rel_matrix(semi, rel)
    surjective = Relation.from_rows(F2, 1, 1, [[1, 1]])
    assert rel_matrix(semi, surjective) == QMat.identity(2)


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
    """The matrix of a term built from the structure's QMats by @ and kron."""
    D = data.dim
    if isinstance(term, tm.Gen):
        if term.name == "mu":
            return data.mu[term.a]
        ev = data.eps_star @ data.m
        maps = {"m": data.m, "m*": data.m_star, "eps*": data.eps_star, "plus": data.plus,
                "z": data.z, "eps": data.eps, "sigma": data.swap(), "ev": ev,
                "coev": data.m_star @ data.eps, "z*": ev @ QMat.identity(D).kron(data.z)}
        return maps[term.name]
    if isinstance(term, tm.IdK):
        return QMat.identity(D**term.k)
    if isinstance(term, tm.MuLit):
        return dense(data, tm.mu_matrix_term(term.mat), t_value)
    if isinstance(term, tm.RelLit):
        rel = term.rel
        if not is_rel_infty(rel):
            return dense(data, cat.decompose_generators(rel), t_value)
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


def test_mu_matrix_term_expanded_once_per_matrix(monkeypatch):
    expanded = []
    swaps = []
    real_expand = tm.mu_matrix_term
    real_swap = FrobeniusData.swap

    def counting_expand(mat):
        expanded.append(mat)
        return real_expand(mat)

    def counting_swap(self):
        swaps.append(self)
        return real_swap(self)

    monkeypatch.setattr(tm, "mu_matrix_term", counting_expand)
    monkeypatch.setattr(FrobeniusData, "swap", counting_swap)
    results = suite_lemmas(F3, seed=7)
    assert all(r.passed for r in results)
    assert expanded and len(expanded) == len(set(expanded))
    # one structure, and its swap matrix is built once
    assert len(swaps) == 1


def test_deep_composite_evaluates():
    # a chain deeper than the interpreter's recursion limit: hashing, compiling
    # and evaluating it all walk it without recursion
    data = standard_target(F2, 1)
    chain = tm.Gen("sigma")
    for i in range(3000):
        chain = tm.Compose(tm.Gen("sigma"), chain) if i % 2 else tm.Compose(chain, tm.Gen("sigma"))
    assert term_eval(data, chain) == data.swap()
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
    # a lone sigma is not: it stays the swap matrix, whiskered where needed
    chain = _compile(data, tm.t_compose(tm.Gen("m"), tm.Gen("sigma"), tm.Gen("m*")), None)
    assert isinstance(chain, _Chain)
    assert not any(isinstance(node, _Perm) for node in (chain.first, *chain.rest))
    # a run that composes to the identity leaves no node
    swap = tm.adjacent_swap_term(0, 2)
    chain = _compile(data, tm.t_compose(tm.Gen("m"), swap, swap, tm.Gen("m*")), None)
    assert len(chain.rest) == 1
    # a tensor chain of non-identity factors is one flat node over all of them
    node = _compile(data, tm.t_tensor(*(tm.Gen("mu", a) for a in range(3))), None)
    assert isinstance(node, _Kron) and len(node.factors) == 3


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
    mu = dict(data.mu)
    mu[2] = data.mu[1]
    bad = FrobeniusData(F3, data.dim, data.m, data.m_star, data.eps_star, data.plus, data.z, mu,
                        data.eps)
    rel = mu_relation(MatFq(F3, 1, 1, [2]))
    assert hat_f(data, rel) == data.mu[2]
    assert hat_f(bad, rel) == term_eval(bad, normal_form_term(rel)) == QMat.identity(3)
    assert hat_f(data, rel) == data.mu[2]


def test_hat_f_memo_still_rejects_non_members():
    data = standard_target(F2, 1)
    hat_f(data, Relation.from_rows(F2, 1, 1, [[1, 1]]))
    rel = Relation.zero_space(F2, 1, 1)
    for _ in range(2):
        with pytest.raises(NotRelInfty, match="does not surject onto the codomain block"):
            hat_f(data, rel)
