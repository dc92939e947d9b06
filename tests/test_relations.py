"""Relation calculus: star composition, products, orthogonal indexing,
and the codomain-surjective subfamily."""

import itertools
import random

import pytest

from helpers import full_space, zero_space

import relcat.matrix as matrix
import relcat.relations as relations
from relcat.errors import ArityMismatch, NotRelInfty, UnknownGenerator
from relcat.field import Fq
from relcat.matrix import MatFq
from relcat.relations import (
    GENERATORS,
    Relation,
    generator_relation,
    identity_relation,
    is_rel_infty,
    knop_diamond,
    mu_relation,
    permutation_relation,
    product,
    random_invertible,
    random_rel_infty,
    random_relation,
    rel_infty_from_parts,
    rel_infty_normal_form,
    sigma_relation,
    star,
)

F2, F3, F4 = Fq(2), Fq(3), Fq(2, 2)


def test_star_counit_after_unit():
    # composing the all-sum arrow [0]->[1] with the sum-away arrow [1]->[0]
    eps = generator_relation(F2, "eps")
    eps_star = generator_relation(F2, "eps*")
    sr, d = star(eps, eps_star)
    assert sr == zero_space(F2, 0, 0)
    assert d == 1


def test_star_identity():
    ident = identity_relation(F3, 1)
    sr, d = star(ident, ident)
    assert sr == ident and d == 0


def test_star_split_then_merge():
    # merge after split is the identity with no defect
    split = generator_relation(F2, "m*")
    merge = generator_relation(F2, "m")
    sr, d = star(split, merge)
    assert sr == identity_relation(F2, 1) and d == 0


def test_star_arity_mismatch():
    with pytest.raises(ArityMismatch):
        star(generator_relation(F2, "m"), generator_relation(F2, "m"))


def test_star_associativity_with_defects():
    rng = random.Random(10)
    for _ in range(500):
        F = rng.choice([F2, F3, F4])
        s, k, l, m = (rng.randrange(4) for _ in range(4))
        r1 = random_relation(rng, F, s, k)
        r2 = random_relation(rng, F, k, l)
        r3 = random_relation(rng, F, l, m)
        left_inner, d1 = star(r1, r2)
        left, d2 = star(left_inner, r3)
        right_inner, d3 = star(r2, r3)
        right, d4 = star(r1, right_inner)
        assert left == right
        assert d1 + d2 == d3 + d4


def test_product_identities():
    ident1 = identity_relation(F2, 1)
    assert product(ident1, ident1) == identity_relation(F2, 2)


def test_product_zero_spaces():
    eps = generator_relation(F3, "eps")
    assert product(eps, eps) == zero_space(F3, 0, 2)


def _product_rows(r1, r2):
    """The basis rows of r1 and r2 placed in [dom1|dom2|cod1|cod2]."""
    s1, k1, s2, k2 = r1.s, r1.k, r2.s, r2.k
    rows = [v[:s1] + [0] * s2 + v[s1:] + [0] * k2 for v in r1.basis.tolist()]
    return rows + [[0] * s1 + v[:s2] + [0] * k1 + v[s2:] for v in r2.basis.tolist()]


def test_product_rows_are_already_reduced():
    # the product wraps its stacked rows without an elimination; reducing the
    # same rows gives the same relation
    rng = random.Random(81)
    seen = set()
    for trial in range(600):
        F = rng.choice([F2, F3, F4, Fq(5)])
        r1, r2 = (random_relation(rng, F, rng.randrange(4), rng.randrange(4)) for _ in range(2))
        want = Relation.from_rows(F, r1.s + r2.s, r1.k + r2.k, _product_rows(r1, r2))
        assert product(r1, r2) == want, (trial, r1, r2)
        seen |= {r.dim == 0 for r in (r1, r2)} | {("empty", r.s + r.k == 0) for r in (r1, r2)}
    assert seen == {True, False, ("empty", True), ("empty", False)}
    empty = zero_space(F3, 0, 0)
    for r in (empty, zero_space(F3, 2, 1), full_space(F3, 1, 2),
              Relation.from_rows(F3, 2, 1, [[0, 1, 2]])):
        for r1, r2 in ((r, empty), (empty, r), (r, r)):
            want = Relation.from_rows(F3, r1.s + r2.s, r1.k + r2.k, _product_rows(r1, r2))
            assert product(r1, r2) == want, (r1, r2)


def test_diamond_examples():
    # the perp of the identity line, composed with itself
    line = Relation.from_rows(F2, 1, 1, [[1, 1]])
    image, e = knop_diamond(line, line)
    assert image == line and e == 0
    # degenerate arities: fiber product over F_q^1 of two zero spaces
    rp = zero_space(F3, 0, 1)
    sp = zero_space(F3, 1, 0)
    image, e = knop_diamond(rp, sp)
    assert image == zero_space(F3, 0, 0) and e == 0


def test_diamond_matches_star_through_perp():
    rng = random.Random(11)
    for _ in range(500):
        F = rng.choice([F2, F3, F4])
        s, k, l = (rng.randrange(4) for _ in range(3))
        r = random_relation(rng, F, s, k)
        t = random_relation(rng, F, k, l)
        sr, d = star(r, t)
        image, e = knop_diamond(r.perp(), t.perp())
        assert image == sr.perp()
        assert e == d


def _span(F, rows, n):
    """Every vector of the span of rows, by running over all coefficients."""
    out = set()
    for coeffs in itertools.product(F.elements(), repeat=len(rows)):
        vec = [0] * n
        for c, row in zip(coeffs, rows):
            vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, row)]
        out.add(tuple(vec))
    return out


def _log_q(F, size):
    dim = 0
    while F.q**dim < size:
        dim += 1
    assert F.q**dim == size
    return dim


def test_star_and_diamond_brute_force():
    # vector sets only: no elimination is involved on the oracle side
    rng = random.Random(13)
    for F in (F2, F3, F4):
        for _ in range(60):
            s, k, l = (rng.randrange(3) for _ in range(3))
            r = random_relation(rng, F, s, k)
            t = random_relation(rng, F, k, l)
            rs = _span(F, r.basis.tolist(), s + k)
            ts = _span(F, t.basis.tolist(), k + l)
            by_mid = {}
            for vec in ts:
                by_mid.setdefault(vec[:k], []).append(vec[k:])
            # star glues w to -w: (v, w) in r and (-w, u) in t
            composite = {
                v[:s] + u
                for v in rs
                for u in by_mid.get(tuple(F.neg(x) for x in v[s:]), [])
            }
            middle = {
                tuple(F.add(x, y) for x, y in zip(a[s:], b[:k])) for a in rs for b in ts
            }
            sr, d = star(r, t)
            assert _span(F, sr.basis.tolist(), s + l) == composite
            assert d == k - _log_q(F, len(middle))
            # the fiber product glues w to w
            fiber = [v + u for v in rs for u in by_mid.get(v[s:], [])]
            image = {vec[:s] + vec[s + k :] for vec in fiber}
            img, e = knop_diamond(r, t)
            assert _span(F, img.basis.tolist(), s + l) == image
            assert e == _log_q(F, len(fiber) // len(image))


def test_star_and_diamond_reduce_once(monkeypatch):
    calls = []
    real = relations.row_reduce

    def counting(*args):
        calls.append(args)
        return real(*args)

    def forbidden(*args):
        raise AssertionError("the composite was validated or reduced again")

    rng = random.Random(14)
    pairs = [
        (random_relation(rng, F3, 2, 2), random_relation(rng, F3, 2, 1)) for _ in range(20)
    ]
    monkeypatch.setattr(relations, "row_reduce", counting)
    for cls, name in ((MatFq, "rref"), (MatFq, "__init__"), (Relation, "__init__")):
        monkeypatch.setattr(cls, name, forbidden)
    for r, t in pairs:
        for compose in (star, knop_diamond):
            calls.clear()
            compose(r, t)
            assert len(calls) == 1


def test_perp_is_involution():
    rng = random.Random(12)
    for _ in range(100):
        F = rng.choice([F2, F3])
        r = random_relation(rng, F, rng.randrange(3), rng.randrange(3))
        assert r.perp().perp() == r


def test_rel_infty_membership():
    assert is_rel_infty(Relation.from_rows(F2, 1, 1, [[1, 1]]))
    assert not is_rel_infty(Relation.from_rows(F2, 1, 1, [[1, 0]]))
    # the empty-codomain case is vacuously surjective
    assert is_rel_infty(zero_space(F2, 2, 0))


def test_rel_infty_normal_form_line():
    a, ap = rel_infty_normal_form(Relation.from_rows(F2, 1, 1, [[1, 1]]))
    assert a.tolist() == [[1]]
    assert ap.rows == 0


def test_rel_infty_normal_form_reduces_once(monkeypatch):
    calls = []
    real = relations.row_reduce

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(relations, "row_reduce", counting)
    monkeypatch.setattr(matrix, "row_reduce", counting)
    rng = random.Random(19)
    for F in (F2, F3, F4):
        for _ in range(60):
            r = random_relation(rng, F, rng.randrange(4), rng.randrange(4))
            # membership as it was decided before: the codomain block has rank k
            member = real(F, r.basis.take_cols(range(r.s, r.s + r.k)).tolist(), r.k)[0]
            calls.clear()
            if len(member) == r.k:
                a, ap = rel_infty_normal_form(r)
                assert len(calls) == 1
                assert rel_infty_from_parts(a, ap) == r
            else:
                with pytest.raises(NotRelInfty):
                    rel_infty_normal_form(r)
                assert len(calls) == 1


def test_rel_infty_normal_form_rejects():
    with pytest.raises(NotRelInfty):
        rel_infty_normal_form(Relation.from_rows(F2, 1, 1, [[1, 0]]))


def test_rel_infty_round_trip():
    rng = random.Random(13)
    for _ in range(500):
        F = rng.choice([F2, F3, F4])
        r = random_rel_infty(rng, F, rng.randrange(4), rng.randrange(4))
        assert is_rel_infty(r)
        a, ap = rel_infty_normal_form(r)
        assert rel_infty_from_parts(a, ap) == r
        assert ap.rref()[0] == ap  # normal form tail is canonical
        assert ap.rows == r.dim - r.k


def test_rel_infty_closure():
    rng = random.Random(14)
    for _ in range(300):
        F = rng.choice([F2, F3])
        s, k, l = (rng.randrange(4) for _ in range(3))
        r1 = random_rel_infty(rng, F, s, k)
        r2 = random_rel_infty(rng, F, k, l)
        sr, d = star(r1, r2)
        assert d == 0
        assert is_rel_infty(sr)
        assert is_rel_infty(product(r1, r2))


def test_mu_relation_composition_shadow():
    # scaling relations compose like the underlying matrices, defect-free
    rng = random.Random(15)
    for _ in range(100):
        F = rng.choice([F2, F3])
        s, k, l = (rng.randrange(1, 4) for _ in range(3))
        a = MatFq(F, k, s, [rng.randrange(F.q) for _ in range(k * s)])
        b = MatFq(F, l, k, [rng.randrange(F.q) for _ in range(l * k)])
        sr, d = star(mu_relation(a), mu_relation(b))
        assert d == 0
        assert sr == mu_relation(b @ a)


def test_generator_table():
    assert generator_relation(F3, "mu", 1) == identity_relation(F3, 1)
    z = generator_relation(F2, "z")
    assert (z.s, z.k) == (0, 1) and z.dim == 1
    assert sigma_relation(F2, 1, 1) == Relation.from_rows(
        F2, 2, 2, [[1, 0, 0, 1], [0, 1, 1, 0]]
    )
    with pytest.raises(UnknownGenerator):
        generator_relation(F2, "nope")
    with pytest.raises(UnknownGenerator):
        generator_relation(F2, "mu")


TABLE_FIELDS = (Fq(2), Fq(3), Fq(5), Fq(2, 2), Fq(3, 2), Fq(2, 3))


def test_generator_table_rows_are_canonical():
    for F in TABLE_FIELDS:
        for name, (s, k, rows) in GENERATORS.items():
            canonical = Relation(F, s, k, MatFq.from_rows(F, rows, s + k))
            assert generator_relation(F, name) == canonical, (F, name)
        for a in F.elements():
            mu = generator_relation(F, "mu", a)
            assert mu == Relation.from_rows(F, 1, 1, [[F.neg(a), 1]]), (F, a)
            assert mu == Relation(F, 1, 1, mu.basis), (F, a)
            assert mu == mu_relation(MatFq(F, 1, 1, [a]))


def test_sigma_relation_signs():
    # block swap: a at slot i pairs with -a at mirrored slot
    sig = sigma_relation(F3, 1, 1)
    assert sig == Relation.from_rows(F3, 2, 2, [[1, 0, 0, -1], [0, 1, -1, 0]])


def test_permutation_relation_identity_and_swap():
    assert permutation_relation(F2, [0, 1]) == identity_relation(F2, 2)
    assert permutation_relation(F2, [1, 0]) == sigma_relation(F2, 1, 1)


def test_relation_text_round_trip():
    r = Relation.from_rows(F2, 1, 1, [[1, 1]])
    assert r.to_text() == "rel(2;1,1;[[1,1]])"
    r4 = Relation.from_rows(F4, 1, 1, [[1, 2]])
    assert r4.to_text() == "rel(2^2;1,1;[[1,2]])"


def test_retype_preserves_space():
    r = Relation.from_rows(F2, 1, 1, [[1, 1]])
    r2 = r.retype(2, 0)
    assert (r2.s, r2.k) == (2, 0) and r2.basis == r.basis
    with pytest.raises(ArityMismatch):
        r.retype(2, 1)


def test_random_invertible_is_invertible():
    rng = random.Random(16)
    for _ in range(20):
        m = random_invertible(rng, F4, 3)
        assert m.is_invertible()


def test_random_relation_matches_from_rows():
    # one reduction of the drawn rows gives the relation from_rows builds,
    # from the same rng draws
    for F in (F2, F3, F4):
        drawn, replay = random.Random(60), random.Random(60)
        for _ in range(40):
            s, k = drawn.randrange(4), drawn.randrange(4)
            replay.randrange(4), replay.randrange(4)
            rel = random_relation(drawn, F, s, k)
            nrows = replay.randrange(s + k + 1)
            rows = [[replay.randrange(F.q) for _ in range(s + k)] for _ in range(nrows)]
            expected = Relation.from_rows(F, s, k, rows)
            assert rel == expected and rel.basis.entries == expected.basis.entries
            assert (rel.basis.rows, rel.basis.cols) == (expected.basis.rows, expected.basis.cols)
        assert drawn.getstate() == replay.getstate()


def test_equal_relations_hash_equal_and_keep_their_hash():
    # one subspace of F_3^3 typed [1] -> [2], reached five ways
    rows = [[1, 0, 2], [0, 1, 1]]
    built = Relation.from_rows(F3, 1, 2, rows)
    trusted = Relation._trusted(F3, 1, 2, MatFq.from_rows(F3, rows))
    starred, d = star(identity_relation(F3, 1), built)
    tensored = product(built, zero_space(F3, 0, 0))
    unreduced = Relation.from_rows(F3, 1, 2, [[1, 1, 0], [1, 0, 2], [2, 2, 0]])
    assert d == 0
    for rel in (built, trusted, starred, tensored, unreduced):
        assert rel == built and built == rel and hash(rel) == hash(built)
    assert len({built, trusted, starred, tensored, unreduced}) == 1
    first = hash(built)
    assert built._hash == first and hash(built) == first
    assert hash(Relation.from_rows(F3, 1, 2, rows)) == first
    # a different typing or field of the same rows is a different relation
    assert built != built.retype(2, 1) and built != Relation.from_rows(F2, 1, 2, rows)
    assert built == built and built != "rel(3;1,2;[[1,0,2],[0,1,1]])"


def test_relations_over_two_fields_share_a_hash_but_not_a_key():
    # the hash reads the arities and the entries; equality compares the field
    rows = [[1, 0, 1], [0, 1, 1]]
    over_f2, over_f3 = Relation.from_rows(F2, 1, 2, rows), Relation.from_rows(F3, 1, 2, rows)
    assert over_f2.basis.entries == over_f3.basis.entries
    assert hash(over_f2) == hash(over_f3) and over_f2 != over_f3
    keys = {over_f2: "F_2", over_f3: "F_3"}
    assert len(keys) == 2 and keys[Relation.from_rows(F3, 1, 2, rows)] == "F_3"
