"""The formal category: composition with t-powers, tensor, duals, trace,
pairing forms, orbit basis, and generator decomposition."""

import random
from fractions import Fraction

import pytest

from helpers import full_space, inverse, zero_space

from relcat.errors import ArityMismatch
from relcat import category as cat
from relcat.category import Morphism
from relcat.dsl import eval_formal
from relcat.field import Fq
from relcat.matrix import MatFq, enumerate_subspaces
from relcat.poly import PolyQ, det_poly, rational_roots
from relcat.relations import (
    GENERATORS,
    Relation,
    coev_bar_relation,
    ev_bar_relation,
    generator_relation,
    identity_relation,
    product,
    random_invertible,
    random_relation,
    sigma_relation,
    star,
)
from relcat.terms import decompose_generators

F2, F3, F4 = Fq(2), Fq(3), Fq(2, 2)


def rel_morphism(F, s, k, rows):
    return Morphism.from_relation(Relation.from_rows(F, s, k, rows))


def test_compose_scalar_loop():
    eps = cat.generator(F2, "eps")
    eps_star = cat.generator(F2, "eps*")
    loop = cat.compose(eps_star, eps)
    assert loop == Morphism(F2, 0, 0, {zero_space(F2, 0, 0): PolyQ.t_power(1)})


def test_compose_identity_neutral():
    rng = random.Random(20)
    for _ in range(50):
        F = rng.choice([F2, F3])
        s, k = rng.randrange(3), rng.randrange(3)
        f = Morphism.from_relation(random_relation(rng, F, s, k))
        assert cat.compose(cat.identity(F, k), f) == f
        assert cat.compose(f, cat.identity(F, s)) == f


def test_compose_speciality():
    m = cat.generator(F2, "m")
    m_star = cat.generator(F2, "m*")
    assert cat.compose(m, m_star) == cat.identity(F2, 1)


def test_compose_then_evaluate():
    eps = cat.generator(F2, "eps")
    eps_star = cat.generator(F2, "eps*")
    loop = cat.compose(eps_star, eps).evaluate(4)
    assert loop == Morphism(F2, 0, 0, {zero_space(F2, 0, 0): PolyQ.const(4)})


def test_evaluate_commutes_with_compose_and_tensor():
    # t -> v is a ring map Q[t] -> Q, so it may be applied to the inputs too
    rng = random.Random(24)
    t = PolyQ.t_power(1)
    for _ in range(100):
        F = rng.choice([F2, F3])
        s, k, l = (rng.randrange(3) for _ in range(3))
        v = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        f = rel_morphism(F, s, k, []).scale(t - PolyQ.one()) + Morphism.from_relation(
            random_relation(rng, F, s, k)
        ).scale(t * t)
        g = Morphism.from_relation(random_relation(rng, F, k, l)).scale(t)
        fv, gv = f.evaluate(v), g.evaluate(v)
        assert cat.compose(g, f).evaluate(v) == cat.compose(gv, fv).evaluate(v)
        assert cat.tensor(g, f).evaluate(v) == cat.tensor(gv, fv)
        assert cat.dual(f).evaluate(v) == cat.dual(fv).evaluate(v)


def test_category_axioms_random():
    rng = random.Random(21)
    for _ in range(500):
        F = rng.choice([F2, F3, F4])
        s, k, l, m = (rng.randrange(4) for _ in range(4))
        f = Morphism.from_relation(random_relation(rng, F, s, k))
        g = Morphism.from_relation(random_relation(rng, F, k, l))
        h = Morphism.from_relation(random_relation(rng, F, l, m))
        assert cat.compose(h, cat.compose(g, f)) == cat.compose(cat.compose(h, g), f)


def test_interchange_law():
    rng = random.Random(22)
    for _ in range(200):
        F = rng.choice([F2, F3])
        s1, k1, l1 = (rng.randrange(3) for _ in range(3))
        s2, k2, l2 = (rng.randrange(3) for _ in range(3))
        f = Morphism.from_relation(random_relation(rng, F, s1, k1))
        fp = Morphism.from_relation(random_relation(rng, F, k1, l1))
        g = Morphism.from_relation(random_relation(rng, F, s2, k2))
        gp = Morphism.from_relation(random_relation(rng, F, k2, l2))
        lhs = cat.tensor(cat.compose(fp, f), cat.compose(gp, g))
        rhs = cat.compose(cat.tensor(fp, gp), cat.tensor(f, g))
        assert lhs == rhs


def test_tensor_identities():
    assert cat.tensor(cat.identity(F2, 1), cat.identity(F2, 1)) == cat.identity(F2, 2)
    eps = cat.generator(F3, "eps")
    assert cat.tensor(eps, eps) == Morphism.from_relation(zero_space(F3, 0, 2))


def test_symmetry_coherence():
    rng = random.Random(23)
    sig = cat.symmetry(F2, 1, 1)
    assert cat.compose(sig, sig) == cat.identity(F2, 2)
    for _ in range(100):
        F = rng.choice([F2, F3])
        s1, k1, s2, k2 = (rng.randrange(3) for _ in range(4))
        f = Morphism.from_relation(random_relation(rng, F, s1, k1))
        g = Morphism.from_relation(random_relation(rng, F, s2, k2))
        lhs = cat.compose(cat.symmetry(F, k1, k2), cat.tensor(f, g))
        rhs = cat.compose(cat.tensor(g, f), cat.symmetry(F, s1, s2))
        assert lhs == rhs


def test_permutation_semantics_and_group_law():
    rng = random.Random(24)
    assert cat.permutation(F2, [0, 1, 2]) == cat.identity(F2, 3)
    assert cat.permutation(F2, [1, 0]) == cat.symmetry(F2, 1, 1)
    for _ in range(50):
        F = rng.choice([F2, F3])
        k = rng.randrange(1, 5)
        p = list(range(k))
        r = list(range(k))
        rng.shuffle(p)
        rng.shuffle(r)
        composed = [p[r[i]] for i in range(k)]
        assert cat.compose(cat.permutation(F, p), cat.permutation(F, r)) == cat.permutation(
            F, composed
        )


def test_mu_morphism_laws():
    rng = random.Random(25)
    for _ in range(100):
        F = rng.choice([F2, F3, F4])
        r1, r2, r3 = (rng.randrange(1, 4) for _ in range(3))
        a = MatFq(F, r2, r1, [rng.randrange(F.q) for _ in range(r2 * r1)])
        b = MatFq(F, r3, r2, [rng.randrange(F.q) for _ in range(r3 * r2)])
        assert cat.compose(cat.mu_morphism(b), cat.mu_morphism(a)) == cat.mu_morphism(b @ a)
        diag_rows = [list(b.row(i)) + [0] * r1 for i in range(r3)]
        diag_rows += [[0] * r2 + list(a.row(i)) for i in range(r2)]
        diag = MatFq.from_rows(F, diag_rows, r2 + r1)
        assert cat.tensor(cat.mu_morphism(b), cat.mu_morphism(a)) == cat.mu_morphism(diag)
    for d in (1, 2, 3):
        assert cat.mu_morphism(MatFq.identity(F3, d)) == cat.identity(F3, d)


def test_snake_identities():
    for F in (F2, F3):
        for k in (1, 2):
            ident = cat.identity(F, k)
            lhs = cat.compose(
                cat.tensor(cat.ev_bar(F, k), ident), cat.tensor(ident, cat.coev_bar(F, k))
            )
            rhs = cat.compose(
                cat.tensor(ident, cat.ev_bar(F, k)), cat.tensor(cat.coev_bar(F, k), ident)
            )
            assert lhs == ident == rhs


def test_dual_identity_and_eps():
    assert cat.dual(cat.identity(F2, 2)) == cat.identity(F2, 2)
    assert cat.dual(cat.generator(F3, "eps")) == cat.generator(F3, "eps*")


def test_dual_of_scaling_is_inverse():
    rng = random.Random(26)
    for _ in range(100):
        F = rng.choice([F2, F3, F4])
        d = rng.randrange(1, 4)
        a = random_invertible(rng, F, d)
        assert cat.dual(cat.mu_morphism(a)) == cat.mu_morphism(inverse(a))


def test_dual_involution_and_antihomomorphism():
    rng = random.Random(27)
    for _ in range(100):
        F = rng.choice([F2, F3])
        s, k, l = (rng.randrange(3) for _ in range(3))
        f = Morphism.from_relation(random_relation(rng, F, s, k))
        g = Morphism.from_relation(random_relation(rng, F, k, l))
        assert cat.dual(cat.dual(f)) == f
        assert cat.dual(cat.compose(g, f)) == cat.compose(cat.dual(f), cat.dual(g))


def test_dual_closed_form_is_block_swap():
    # the operational snake dual agrees with swapping the domain and
    # codomain coordinate blocks of the underlying subspace
    rng = random.Random(28)
    for _ in range(200):
        F = rng.choice([F2, F3, F4])
        s, k = rng.randrange(3), rng.randrange(3)
        rel = random_relation(rng, F, s, k)
        swapped = Relation(
            F, k, s, rel.basis.take_cols(list(range(s, s + k)) + list(range(s)))
        )
        assert cat.dual(Morphism.from_relation(rel)) == Morphism.from_relation(swapped)


def test_trace_values():
    assert cat.trace(cat.identity(F2, 0)) == PolyQ.one()
    assert cat.trace(cat.identity(F2, 1)) == PolyQ.t_power(1)
    assert cat.trace(cat.identity(F3, 2)) == PolyQ.t_power(2)
    assert cat.trace(cat.identity(F2, 1)).evaluate(8) == 8
    with pytest.raises(ArityMismatch):
        cat.trace(cat.generator(F2, "m"))


def test_gram_probe_q2_vector_object():
    rels, mat = cat.gram(F2, 0, 1)
    assert len(rels) == 2
    det = det_poly(mat)
    assert not det.is_zero()
    roots = rational_roots(det)
    assert roots, "determinant should vanish somewhere"
    for root in roots:
        assert root.denominator == 1 and root >= 1
        # every rational root is a power of q = 2
        n = int(root)
        while n % 2 == 0:
            n //= 2
        assert n == 1


def test_phi_is_retype():
    r = Relation.from_rows(F2, 1, 1, [[1, 1]])
    form = cat.phi(r)
    assert (form.s, form.k) == (2, 0)
    assert cat.phi(zero_space(F2, 0, 1)) == cat.generator(F2, "eps*")


def test_t_iso_round_trip_and_phi():
    rng = random.Random(29)
    for _ in range(200):
        F = rng.choice([F2, F3])
        s, k = rng.randrange(3), rng.randrange(3)
        rel = random_relation(rng, F, s, k)
        f = Morphism.from_relation(rel)
        assert cat.t_iso(f) == cat.phi(rel)
        assert cat.t_inv(cat.t_iso(f), s, k) == f


def test_ast_laws():
    rng = random.Random(30)
    for _ in range(200):
        F = rng.choice([F2, F3])
        s, k, l = (rng.randrange(3) for _ in range(3))
        r = random_relation(rng, F, s, k)
        t = random_relation(rng, F, k, l)
        fr, ft = Morphism.from_relation(r), Morphism.from_relation(t)
        assert cat.t_iso(cat.compose(ft, fr)) == cat.ast(cat.t_iso(fr), cat.t_iso(ft), k)
        sr, d = star(r, t)
        assert cat.ast(cat.phi(r), cat.phi(t), k) == cat.phi(sr).scale(PolyQ.t_power(d))


def test_t_iso_tensor_with_interchange():
    # the pairing form of a tensor equals the tensor of the forms,
    # precomposed with the structural block interchange
    rng = random.Random(31)
    for _ in range(100):
        F = rng.choice([F2, F3])
        f = Morphism.from_relation(random_relation(rng, F, rng.randrange(3), rng.randrange(3)))
        g = Morphism.from_relation(random_relation(rng, F, rng.randrange(3), rng.randrange(3)))
        inter = cat.tensor(
            cat.tensor(cat.identity(F, g.s), cat.symmetry(F, f.s, g.k)),
            cat.identity(F, f.k),
        )
        lhs = cat.t_iso(cat.tensor(g, f))
        rhs = cat.compose(cat.tensor(cat.t_iso(g), cat.t_iso(f)), inter)
        assert lhs == rhs


def test_orbit_expand_counts():
    full = full_space(F2, 1, 1)
    assert cat.orbit_expand(full) == {full: Fraction(1)}
    zero = zero_space(F2, 1, 1)
    expansion = cat.orbit_expand(zero)
    assert len(expansion) == 5
    assert set(expansion.values()) == {Fraction(1)}


def test_orbit_round_trip_exhaustive():
    for F in (F2, F3):
        for basis in enumerate_subspaces(F, 2):
            rel = Relation(F, 1, 1, basis)
            recovered = cat.orbit_invert(cat.orbit_expand(rel), F, 1, 1)
            assert recovered == Morphism.from_relation(rel)


def test_decompose_generators_examples():
    term = decompose_generators(identity_relation(F2, 1))
    assert eval_formal(term, F2) == cat.identity(F2, 1)
    zero = zero_space(F2, 1, 1)
    assert eval_formal(decompose_generators(zero), F2) == Morphism.from_relation(zero)
    unit_object = zero_space(F3, 0, 0)
    assert eval_formal(decompose_generators(unit_object), F3) == cat.identity(F3, 0)


def test_decompose_generators_random():
    rng = random.Random(32)
    for _ in range(300):
        F = rng.choice([F2, F3])
        s, k = rng.randrange(3), rng.randrange(3)
        rel = random_relation(rng, F, s, k)
        term = decompose_generators(rel)
        assert eval_formal(term, F) == Morphism.from_relation(rel)


# -- trusted compose and tensor against the checked path ------------------------


def _random_coeff(rng):
    """A nonzero polynomial of degree at most 2."""
    return PolyQ({0: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 5), rng.randrange(1, 4)),
                  rng.randrange(1, 3): rng.randrange(-2, 3)})


def _mixed_coeff(rng):
    """The shared unit, a unit built by the checking constructor, a power of
    t, a rational, or a Q[t] sum."""
    kind = rng.randrange(5)
    if kind == 0:
        return PolyQ.one()
    if kind == 1:
        return PolyQ({0: 1})
    if kind == 2:
        return PolyQ.t_power(rng.randrange(1, 3))
    if kind == 3:
        return PolyQ.const(Fraction(rng.choice((-3, -1, 2, 5)), rng.randrange(1, 4)))
    return _random_coeff(rng)


def _checked_product(f, g, combine):
    """Sum over term pairs of combine(rf, rg) = (relation, defect): every
    coefficient is multiplied and summed entry by entry and built by the
    checking PolyQ and Morphism constructors."""
    acc = {}
    for rf, cf in f.terms.items():
        for rg, cg in g.terms.items():
            rel, d = combine(rf, rg)
            slot = acc.setdefault(rel, {})
            for d1, c1 in cf.coeffs.items():
                for d2, c2 in cg.coeffs.items():
                    slot[d1 + d2 + d] = slot.get(d1 + d2 + d, 0) + c1 * c2
    return {rel: PolyQ(slot) for rel, slot in acc.items()}


def test_trusted_compose_and_tensor_match_checked_path():
    rng = random.Random(33)
    cancelled = 0
    for _ in range(200):
        F = rng.choice([F2, F3, F4])
        s, k, l = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        g = Morphism(F, s, k, {random_relation(rng, F, s, k): _mixed_coeff(rng)
                               for _ in range(rng.randrange(1, 4))})
        f = Morphism(F, k, l, {random_relation(rng, F, k, l): _mixed_coeff(rng)
                               for _ in range(rng.randrange(1, 4))})
        # two relations with the same composite after one term of g, with
        # opposite coefficients: that composite's coefficient cancels
        rg = next(iter(g.terms))
        for _ in range(20):
            r1, r2 = random_relation(rng, F, k, l), random_relation(rng, F, k, l)
            if r1 != r2 and star(rg, r1) == star(rg, r2):
                c = _mixed_coeff(rng)
                f = Morphism(F, k, l, {**f.terms, r1: c, r2: -c})
                break
        composites = {star(rg, rf)[0] for rg in g.terms for rf in f.terms}
        cancelled += len(cat.compose(f, g).terms) < len(composites)
        checked = [(cat.compose(f, g), Morphism(F, s, l, _checked_product(g, f, star)))]
        for a, b in ((f, g), (g, f)):
            terms = _checked_product(a, b, lambda x, y: (product(x, y), 0))
            checked.append((cat.tensor(a, b), Morphism(F, a.s + b.s, a.k + b.k, terms)))
        for got, want in checked:
            assert got == want and hash(got) == hash(want)
            assert all(not c.is_zero() for c in got.terms.values()), got.terms
            assert all((r.field, r.s, r.k) == (F, got.s, got.k) for r in got.terms)
    assert cancelled > 10


def test_compose_that_cancels_leaves_no_term():
    # eps* and z* both send the zero vector z to 1, with no loop
    f = cat.generator(F2, "eps*") - cat.generator(F2, "z*")
    loop = cat.compose(f, cat.generator(F2, "z"))
    assert loop.terms == {} and loop == Morphism.zero(F2, 0, 0)


def test_morphism_canonical_text():
    f = cat.generator(F2, "eps").scale(PolyQ.t_power(1)).add(
        cat.generator(F2, "z").scale(Fraction(3, 2))
    )
    assert f.to_text() == "t * rel(2;0,1;[]) + 3/2 * rel(2;0,1;[[1]])"


def test_scale_and_evaluate_match_the_checking_constructor():
    # scale and evaluate wrap their results unchecked; the checking
    # constructor coerces and prunes the same coefficients from scratch
    t = PolyQ.t_power(1)
    coeffs = [0, PolyQ.one(), PolyQ.t_power(2), Fraction(3, 2), -1, t - PolyQ.const(2),
              t * t - PolyQ.const(Fraction(1, 4)), t + PolyQ.one()]
    # 0, roots of t - 2, t^2 - 1/4 and t + 1, and a rational that is none
    values = [0, 2, Fraction(1, 2), -1, Fraction(3, 7)]
    rng = random.Random(41)
    for F in (F2, F3, F4):
        for _ in range(12):
            s, k = rng.randrange(3), rng.randrange(3)
            rels = {random_relation(rng, F, s, k) for _ in range(4)}
            f = Morphism(F, s, k, {rel: rng.choice(coeffs) for rel in rels})
            assert f.scale(PolyQ.one()) is f and f.scale(1) is f
            for c in coeffs:
                poly = c if isinstance(c, PolyQ) else PolyQ.const(c)
                got = f.scale(c)
                assert got == Morphism(F, s, k, {r: v * poly for r, v in f.terms.items()})
                assert all(isinstance(v, PolyQ) and v.coeffs for v in got.terms.values())
                assert c != 0 or got.is_zero()
            for value in values:
                got = f.evaluate(value)
                assert got == Morphism(F, s, k, {r: v.evaluate(value) for r, v in f.terms.items()})
                assert all(v.degree() == 0 for v in got.terms.values())


def test_morphism_arity_checks():
    with pytest.raises(ArityMismatch):
        cat.compose(cat.generator(F2, "m"), cat.generator(F2, "z"))
    with pytest.raises(ArityMismatch):
        cat.generator(F2, "m").add(cat.generator(F2, "m*"))


def test_shared_generators_and_monomials_stay_as_built():
    def fresh_generators(F):
        """Each cached morphism beside the same one built anew with a new unit."""
        unit = PolyQ({0: 1})
        pairs = [(cat.generator(F, name), generator_relation(F, name)) for name in GENERATORS]
        pairs += [(cat.generator(F, "mu", a), generator_relation(F, "mu", a)) for a in range(F.q)]
        for k in range(3):
            pairs += [(cat.identity(F, k), identity_relation(F, k)),
                      (cat.ev_bar(F, k), ev_bar_relation(F, k)),
                      (cat.coev_bar(F, k), coev_bar_relation(F, k)),
                      (cat.symmetry(F, 1, k), sigma_relation(F, 1, k))]
        return [(shared, Morphism(F, rel.s, rel.k, {rel: unit})) for shared, rel in pairs]

    units = [PolyQ.one(), PolyQ.const(1), PolyQ.t_power(0), PolyQ.t_power(1), PolyQ.t_power(2)]
    for F in (F2, F3, F4):
        shared = [morphism for morphism, _ in fresh_generators(F)]
        for f in shared:
            for u in units:
                f.scale(u).add(f)
                f.add(f.scale(-1))
                f.scale(u).evaluate(Fraction(3, 2))
            f.evaluate(1)
            cat.dual(f)
            for g in shared:
                if f.s == g.k:
                    cat.compose(f, g)
                if f.s + g.s + f.k + g.k <= 4:
                    cat.tensor(f, g)
    cat.gram(F2, 1, 1)
    for F in (F2, F3, F4):
        for morphism, fresh in fresh_generators(F):
            assert morphism == fresh
    assert cat.identity(F2, 1) is cat.identity(F2, 1)
    assert cat.generator(F3, "m*") is cat.generator(F3, "m*")
    assert PolyQ.one() is PolyQ.const(1) is PolyQ.t_power(0) is PolyQ.t_power(0, Fraction(1))
    assert PolyQ.one().coeffs == {0: Fraction(1)}
    for d in range(3):
        assert PolyQ.t_power(d) is PolyQ.t_power(d)
        assert PolyQ.t_power(d) == PolyQ({d: 1})


def test_generator_caches_keep_only_small_arrows():
    # an arrow of a rows and 2a columns is shared while 2a^2 <= GENERATOR_CELLS
    # (a = 22), and a larger one is built per call, so no cache keeps it alive
    assert 2 * 22**2 <= cat.GENERATOR_CELLS < 2 * 23**2
    for build, small, large in (
        (cat.identity, (22,), (23,)),
        (cat.symmetry, (11, 11), (12, 11)),
        (cat.ev_bar, (22,), (23,)),
        (cat.coev_bar, (22,), (23,)),
    ):
        assert build(F2, *small) is build(F2, *small)
        fresh = build(F2, *large)
        assert fresh is not build(F2, *large) and fresh == build(F2, *large)
    assert cat.identity(F2, 23) == cat.tensor(cat.identity(F2, 22), cat.identity(F2, 1))
