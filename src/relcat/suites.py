"""Named verification suites shared by the CLI and the acceptance tests.

Each suite returns a list of SuiteResult lines (name, passed, detail),
assembled deterministically from a seed.  The axiom and lemma suites are
built as pairs of generator terms, so the same pair can be checked both as
an exact formal identity (symbolic t) and as an exact matrix identity on
the standard target: the axiom pairs (``frobenius.frobenius_axiom_terms``)
through the structure checker ``check_axioms``, the lemma pairs here.  A
pair that fails on the structure names its first differing cell
(``frobenius.first_difference``).  The functor and
stability suites compare the formal category against its specializations.
"""

from __future__ import annotations

import random

from . import terms as tm
from .concrete import f_r_matrix, rel_infty_stability
from .dsl import eval_formal
from .field import Fq
from .frobenius import (
    FrobeniusData,
    check_axioms,
    first_difference,
    frobenius_axiom_terms,
    hat_f,
    hat_f_guard,
    standard_target,
    term_eval,
)
from .matrix import MatFq
from .relations import (
    is_rel_infty,
    knop_diamond,
    product,
    random_invertible,
    random_rel_infty,
    random_relation,
    star,
)


class SuiteResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f"  [{self.detail}]" if self.detail else "")


def _mat(field: Fq, rng, rows: int, cols: int) -> MatFq:
    return MatFq(field, rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)])


def _block_diag(a: MatFq, b: MatFq) -> MatFq:
    rows = []
    for i in range(a.rows):
        rows.append(list(a.row(i)) + [0] * b.cols)
    for i in range(b.rows):
        rows.append([0] * a.cols + list(b.row(i)))
    return MatFq.from_rows(a.field, rows, a.cols + b.cols)


# -- lemma suite -------------------------------------------------------------


def mu_lemma_terms(field: Fq, seed: int = 0):
    """Matrix-action calculus lemmas, as generator/matrix-literal term pairs."""
    rng = random.Random(seed)
    g = tm.Gen
    I1 = tm.t_id(1)
    pairs = []

    for trial in range(6):
        l_, k_, r_ = (rng.randrange(1, 4) for _ in range(3))
        a = _mat(field, rng, k_, l_)
        b = _mat(field, rng, r_, k_)
        pairs.append((
            f"compos_mu_A #{trial}",
            tm.t_compose(tm.MuLit(b), tm.MuLit(a)),
            tm.MuLit(b @ a),
        ))
        a2 = _mat(field, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        pairs.append((
            f"tensor_prod_mu_B #{trial}",
            tm.t_tensor(tm.MuLit(a), tm.MuLit(a2)),
            tm.MuLit(_block_diag(a, a2)),
        ))

    for l_ in (1, 2, 3):
        pairs.append((f"mu_identity I_{l_}", tm.MuLit(MatFq.identity(field, l_)), tm.t_id(l_)))
    for k_, l_ in ((2, 2), (3, 2), (2, 3)):
        stack = MatFq.identity(field, l_)
        for _ in range(k_ - 1):
            stack = stack.vstack(MatFq.identity(field, l_))
        rhs = tm.t_compose(
            tm.perm_term(tm.grid_transpose_perm(l_, k_)),
            tm.t_power(tm.mstar_it_term(k_), l_),
        )
        pairs.append((f"mu_identity stack k={k_},l={l_}", tm.MuLit(stack), rhs))
        pairs.append((
            f"interchanging_plus_and_comult k={k_},l={l_}",
            tm.t_compose(tm.mstar_it_term(k_), tm.plus_it_term(l_)),
            tm.t_compose(
                tm.t_power(tm.plus_it_term(l_), k_),
                tm.perm_term(tm.grid_transpose_perm(l_, k_)),
                tm.t_power(tm.mstar_it_term(k_), l_),
            ),
        ))
        row = _mat(field, rng, 1, l_)
        pairs.append((
            f"interchanging_mu_A_and_comult k={k_},l={l_}",
            tm.t_compose(tm.mstar_it_term(k_), tm.MuLit(row)),
            tm.t_compose(
                tm.t_power(tm.MuLit(row), k_),
                tm.perm_term(tm.grid_transpose_perm(l_, k_)),
                tm.t_power(tm.mstar_it_term(k_), l_),
            ),
        ))

    for trial in range(4):
        k_, l_, r_ = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(2, 4)
        a = _mat(field, rng, k_, l_)
        stack_k = MatFq.identity(field, k_)
        stack_a = a
        for _ in range(r_ - 1):
            stack_k = stack_k.vstack(MatFq.identity(field, k_))
            stack_a = stack_a.vstack(a)
        pairs.append((
            f"mu_compos_aux #{trial}",
            tm.t_compose(tm.MuLit(stack_k), tm.MuLit(a)),
            tm.MuLit(stack_a),
        ))
        a1 = _mat(field, rng, rng.randrange(1, 3), l_)
        a2 = _mat(field, rng, rng.randrange(1, 3), l_)
        two = MatFq.identity(field, l_).vstack(MatFq.identity(field, l_))
        pairs.append((
            f"vert_stacking #{trial}",
            tm.MuLit(a1.vstack(a2)),
            tm.t_compose(tm.t_tensor(tm.MuLit(a1), tm.MuLit(a2)), tm.MuLit(two)),
        ))
        d_, r1_, r2_ = rng.randrange(1, 3), rng.randrange(1, 3), rng.randrange(1, 3)
        a = _mat(field, rng, d_, r1_)
        zero = MatFq.zeros(field, d_, r2_)
        pairs.append((
            f"horizontal_stacking_with_zero right #{trial}",
            tm.MuLit(a.hstack(zero)),
            tm.t_tensor(tm.MuLit(a), tm.t_power(g("eps*"), r2_)),
        ))
        pairs.append((
            f"horizontal_stacking_with_zero left #{trial}",
            tm.MuLit(zero.hstack(a)),
            tm.t_tensor(tm.t_power(g("eps*"), r2_), tm.MuLit(a)),
        ))
        b = _mat(field, rng, d_, r2_)
        glue = MatFq.identity(field, d_).hstack(MatFq.identity(field, d_))
        pairs.append((
            f"horizontal_stacking #{trial}",
            tm.MuLit(a.hstack(b)),
            tm.t_compose(tm.MuLit(glue), tm.t_tensor(tm.MuLit(a), tm.MuLit(b))),
        ))

    pairs.append((
        "eq_axiom_corollary",
        tm.t_compose(g("ev"), tm.t_tensor(g("plus"), g("plus")), tm.t_tensor(I1, g("m*"), I1)),
        tm.t_compose(g("ev"), tm.t_tensor(I1, g("eps*"), I1)),
    ))
    pairs.append((
        "transferring_plus",
        tm.t_compose(g("ev"), tm.t_tensor(g("plus"), I1)),
        tm.t_compose(g("ev"), tm.t_tensor(I1, g("plus")),
                     tm.t_tensor(I1, g("mu", field.neg(1)), I1)),
    ))
    for a in field.elements():
        if a:
            pairs.append((
                f"dual_scalar_mult a={a}",
                tm.t_compose(g("ev"), tm.t_tensor(g("mu", a), g("mu", a))),
                g("ev"),
            ))
            pairs.append((
                f"eps_and_mu a={a}",
                tm.t_compose(g("mu", a), g("eps")),
                g("eps"),
            ))
    for k_ in (1, 2, 3):
        a = random_invertible(rng, field, k_)
        pairs.append((
            f"transp_mu_A GL_{k_}",
            tm.t_compose(tm.ev_bar_term(k_), tm.t_tensor(tm.MuLit(a), tm.MuLit(a))),
            tm.ev_bar_term(k_),
        ))
        pairs.append((
            f"regular_system_of_eq GL_{k_}",
            tm.t_compose(tm.t_power(g("z*"), k_), tm.MuLit(a)),
            tm.t_power(g("z*"), k_),
        ))
    pairs.append((
        "comparing_with_zero 1",
        tm.t_compose(tm.t_tensor(I1, g("z*")), g("m*")),
        tm.t_compose(g("m"), tm.t_tensor(I1, g("z"))),
    ))
    pairs.append((
        "comparing_with_zero 2",
        tm.t_compose(g("m"), tm.t_tensor(I1, g("z"))),
        tm.t_compose(g("z"), g("z*")),
    ))
    for k_ in (2, 3):
        row = [rng.randrange(field.q) for _ in range(k_)]
        i = rng.randrange(k_)
        row[i] = rng.randrange(1, field.q)
        mat = MatFq(field, 1, k_, row)
        lhs = tm.t_compose(
            g("z*"),
            tm.MuLit(mat),
            tm.t_tensor(tm.t_id(i), g("eps"), tm.t_id(k_ - i - 1)),
        )
        pairs.append((f"eps_star_mu_A k={k_}", lhs, tm.t_power(g("eps*"), k_ - 1)))
    return pairs


# -- suite runners ------------------------------------------------------------


def run_term_pairs(field: Fq, pairs, data: FrobeniusData | None):
    """Check term pairs formally and, when data is given, on that structure.

    One formal memo serves every pair, so a subterm the pairs share is
    evaluated once per run.
    """
    out = []
    memo: dict = {}
    for name, lhs, rhs in pairs:
        formal_ok = eval_formal(lhs, field, memo) == eval_formal(rhs, field, memo)
        detail = "" if formal_ok else "formal mismatch"
        cell = None if data is None else first_difference(data, lhs, rhs)
        if cell is not None:
            mismatch = f"matrix mismatch at D={data.dim}, first at {cell}"
            detail = f"{detail}; {mismatch}" if detail else mismatch
        out.append(SuiteResult(name, formal_ok and cell is None, detail))
    return out


def suite_axioms(field: Fq, n: int = 1):
    """Each axiom pair formally, then on the standard target by the structure checker."""
    # the pair list refuses a large q before the target is built
    pairs = frobenius_axiom_terms(field)
    data = standard_target(field, n)
    out = run_term_pairs(field, pairs, None)
    for name, cell in check_axioms(data):
        out.append(SuiteResult(f"standard target {name}", cell is None,
                               "" if cell is None else str(cell)))
    expected_dim = field.q**n
    dim = term_eval(data, tm.t_compose(tm.Gen("eps*"), tm.Gen("eps")))
    out.append(SuiteResult(
        f"dim = eps*.eps = q^n = {expected_dim}",
        dim.data.get((0, 0)) == expected_dim,
    ))
    return out


def suite_lemmas(field: Fq, n: int = 1, seed: int = 0):
    # the target's cell guard runs before the pair list loops over F_q
    data = standard_target(field, n)
    return run_term_pairs(field, mu_lemma_terms(field, seed), data)


def _arity_guard(field: Fq, n: int, *pairs) -> bool:
    # bound the hom-space cell count so worst-case dense products stay fast
    return all(field.q ** (n * (a + b)) <= 2**12 for a, b in pairs)


class _Tally:
    """Trials run and failures of one randomized check, and the first failure.

    A failing trial's witness is built only for the first failure; the
    detail names its trial (counted from 1), the seed and the relation
    texts, which ``relcat eval`` and ``specialize`` accept.
    """

    __slots__ = ("seed", "runs", "bad", "first")

    def __init__(self, seed: int):
        self.seed = seed
        self.runs = self.bad = 0
        self.first = None

    def record(self, ok: bool, witness) -> None:
        """Count one trial; witness() gives the text of a failing one."""
        self.runs += 1
        if not ok:
            self.bad += 1
            if self.first is None:
                self.first = f"first at trial {self.runs} of seed {self.seed}: {witness()}"

    def result(self, name: str, wanted: int | None = None) -> SuiteResult:
        """Passes when no trial failed and, if given, all wanted trials ran."""
        detail = f"{self.bad} failures" + (f"; {self.first}" if self.first else "")
        short = wanted is not None and self.runs < wanted
        if short:
            detail += f"; only {self.runs} of {wanted} trials ran"
        return SuiteResult(name, self.bad == 0 and not short, detail)


def _composite(r, s) -> str:
    return f"s . r with r = {r.to_text()}, s = {s.to_text()}"


def _product(r1, r2) -> str:
    return f"r1 @ r2 with r1 = {r1.to_text()}, r2 = {r2.to_text()}"


def suite_functor(field: Fq, n: int, trials: int, seed: int, max_arity: int = 3):
    """Composition and monoidality of the specialization, randomized."""
    rng = random.Random(seed)
    comp, ten = _Tally(seed), _Tally(seed)
    attempts = 0
    while comp.runs < trials and attempts < trials * 20:
        attempts += 1
        s_, k_, l_ = (rng.randrange(max_arity + 1) for _ in range(3))
        if not _arity_guard(field, n, (s_, k_), (k_, l_), (s_, l_)):
            continue
        r = random_relation(rng, field, s_, k_)
        s = random_relation(rng, field, k_, l_)
        sr, d = star(r, s)
        lhs = f_r_matrix(s, n).mat @ f_r_matrix(r, n).mat
        rhs = f_r_matrix(sr, n).mat.scale(field.q ** (n * d))
        comp.record(lhs == rhs, lambda: _composite(r, s))
    while ten.runs < trials and attempts < trials * 40:
        attempts += 1
        s1, k1, s2, k2 = (rng.randrange(max_arity + 1) for _ in range(4))
        if not _arity_guard(field, n, (s1, k1), (s2, k2), (s1 + s2, k1 + k2)):
            continue
        r1 = random_relation(rng, field, s1, k1)
        r2 = random_relation(rng, field, s2, k2)
        lhs = f_r_matrix(product(r1, r2), n).mat
        rhs = f_r_matrix(r1, n).mat.kron(f_r_matrix(r2, n).mat)
        ten.record(lhs == rhs, lambda: _product(r1, r2))
    return [
        comp.result(f"composition oracle q={field.q} n={n} ({comp.runs} trials)", trials),
        ten.result(f"monoidality oracle q={field.q} n={n} ({ten.runs} trials)", trials),
    ]


def suite_knop(field: Fq, trials: int, seed: int, max_arity: int = 3):
    """Orthogonal-indexing compatibility: diamond vs star, e vs d."""
    rng = random.Random(seed)
    tally = _Tally(seed)
    for _ in range(trials):
        s_, k_, l_ = (rng.randrange(max_arity + 1) for _ in range(3))
        r = random_relation(rng, field, s_, k_)
        s = random_relation(rng, field, k_, l_)
        sr, d = star(r, s)
        image, e = knop_diamond(r.perp(), s.perp())
        tally.record(image == sr.perp() and e == d, lambda: _composite(r, s))
    return [tally.result(f"orthogonal indexing q={field.q} ({trials} trials)")]


def suite_relinfty(field: Fq, n: int, trials: int, seed: int, max_arity: int = 3):
    """Closure, zero defect, concrete realization, and rank stability."""
    # the widest relation realized is a product of two draws, [2m] -> [2m]
    # of dimension up to 4m; refuse its work before anything is built
    hat_f_guard(field.q, 4 * max_arity, 2 * max_arity, f"relinfty at max-arity {max_arity}")
    rng = random.Random(seed)
    closure, realization, stability = _Tally(seed), _Tally(seed), _Tally(seed)
    data = standard_target(field, 1)
    for _ in range(trials):
        s_, k_, l_ = (rng.randrange(max_arity + 1) for _ in range(3))
        r1 = random_rel_infty(rng, field, s_, k_)
        r2 = random_rel_infty(rng, field, k_, l_)
        sr, d = star(r1, r2)
        closed = d == 0 and is_rel_infty(sr) and is_rel_infty(product(r1, r2))
        closure.record(closed, lambda: _composite(r1, r2))
        if not closed:
            continue
        comp_ok = hat_f(data, r2) @ hat_f(data, r1) == hat_f(data, sr)
        t2 = random_rel_infty(rng, field, rng.randrange(max_arity + 1), rng.randrange(max_arity + 1))
        ten_ok = hat_f(data, r1).kron(hat_f(data, t2)) == hat_f(data, product(r1, t2))
        realization.record(
            comp_ok and ten_ok, lambda: _composite(r1, r2) if not comp_ok else _product(r1, t2)
        )
    # draw until the stability checks have run, within the functor's budget
    wanted = min(trials, 50)
    attempts = 0
    while stability.runs < wanted and attempts < wanted * 20:
        attempts += 1
        s_, k_ = rng.randrange(3), rng.randrange(3)
        if not _arity_guard(field, n + 1, (s_, k_)):
            continue
        r = random_rel_infty(rng, field, s_, k_)
        stability.record(rel_infty_stability(r, n), lambda: f"r = {r.to_text()}")
    return [
        closure.result(f"closure and zero defect q={field.q} ({trials} trials)"),
        realization.result(f"generator-level realization q={field.q}"),
        stability.result(f"rank stability n={n}", wanted),
    ]
