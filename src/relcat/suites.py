"""Named verification suites shared by the CLI and the acceptance tests.

Each suite returns a list of SuiteResult lines (name, passed, detail),
assembled deterministically from a seed.  The axiom and lemma suites are
built as pairs of generator terms, so the same pair can be checked both as
an exact formal identity (symbolic t) and as an exact matrix identity on
the standard target: the axiom pairs (``frobenius.frobenius_axiom_terms``)
through the structure checker ``check_axioms``, the lemma pairs here.  A
pair that fails on the structure names its first differing cell
(``frobenius.first_difference``).  The axiom, lemma and relinfty suites
charge what they will evaluate (``frobenius.check_steps``) in one running
sum, before they evaluate on their standard target, which costs nothing
to build: the axiom and lemma suites add each pair's sides as the pair is
handed out, relinfty each draw's realizations after its trial price.  The
randomized suites charge their trials at a measured per-trial cost, in
us, to the same work budget (``errors.charge``) before their first draw.
The functor and stability suites compare the formal category against its
specializations; a check of theirs that ran
fewer trials than asked, because the draws whose f_R pass ``HOM_CELLS``
were skipped (``_arity_limit``), is refused as well (``_check_ran``) rather than
reported.

Only ``field``, ``matrix`` and ``relations`` load with this module; each
suite imports the layers above them that it runs, so ``verify knop`` loads
no term, evaluator or functor code.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .errors import WORK_BUDGET, TooLarge, charge
from .field import Fq, capped_power
from .matrix import MatFq
from .relations import (
    is_rel_infty,
    knop_diamond,
    product,
    random_invertible,
    random_matrix,
    random_rel_infty,
    random_relation,
    star,
)

if TYPE_CHECKING:  # the layers above relations load only in the suites that run them
    from .frobenius import FrobeniusData


class SuiteResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f"  [{self.detail}]" if self.detail else "")


# -- lemma suite -------------------------------------------------------------


def mu_lemma_terms(field: Fq, seed: int = 0):
    """Matrix-action calculus lemmas, as generator/matrix-literal term pairs."""
    from . import terms as tm

    rng = random.Random(seed)
    g = tm.atom
    I1 = tm.t_id(1)

    for trial in range(6):
        l_, k_, r_ = (rng.randrange(1, 4) for _ in range(3))
        a = random_matrix(rng, field, k_, l_)
        b = random_matrix(rng, field, r_, k_)
        yield f"compos_mu_A #{trial}", tm.t_compose(tm.MuLit(b), tm.MuLit(a)), tm.MuLit(b @ a)
        a2 = random_matrix(rng, field, rng.randrange(1, 3), rng.randrange(1, 3))
        block = a.hstack(MatFq.zeros(field, k_, a2.cols)).vstack(
            MatFq.zeros(field, a2.rows, l_).hstack(a2))
        yield f"tensor_prod_mu_B #{trial}", tm.t_tensor(tm.MuLit(a), tm.MuLit(a2)), tm.MuLit(block)

    for l_ in (1, 2, 3):
        yield f"mu_identity I_{l_}", tm.MuLit(MatFq.identity(field, l_)), tm.t_id(l_)
    for k_, l_ in ((2, 2), (3, 2), (2, 3)):
        stack = MatFq.identity(field, l_)
        for _ in range(k_ - 1):
            stack = stack.vstack(MatFq.identity(field, l_))
        rhs = tm.t_compose(
            tm.perm_term(tm.grid_transpose_perm(l_, k_)),
            tm.t_power(tm.mstar_it_term(k_), l_),
        )
        yield f"mu_identity stack k={k_},l={l_}", tm.MuLit(stack), rhs
        yield (
            f"interchanging_plus_and_comult k={k_},l={l_}",
            tm.t_compose(tm.mstar_it_term(k_), tm.plus_it_term(l_)),
            tm.t_compose(
                tm.t_power(tm.plus_it_term(l_), k_),
                tm.perm_term(tm.grid_transpose_perm(l_, k_)),
                tm.t_power(tm.mstar_it_term(k_), l_),
            ),
        )
        row = random_matrix(rng, field, 1, l_)
        yield (
            f"interchanging_mu_A_and_comult k={k_},l={l_}",
            tm.t_compose(tm.mstar_it_term(k_), tm.MuLit(row)),
            tm.t_compose(
                tm.t_power(tm.MuLit(row), k_),
                tm.perm_term(tm.grid_transpose_perm(l_, k_)),
                tm.t_power(tm.mstar_it_term(k_), l_),
            ),
        )

    for trial in range(4):
        k_, l_, r_ = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(2, 4)
        a = random_matrix(rng, field, k_, l_)
        stack_k = MatFq.identity(field, k_)
        stack_a = a
        for _ in range(r_ - 1):
            stack_k = stack_k.vstack(MatFq.identity(field, k_))
            stack_a = stack_a.vstack(a)
        yield (
            f"mu_compos_aux #{trial}",
            tm.t_compose(tm.MuLit(stack_k), tm.MuLit(a)),
            tm.MuLit(stack_a),
        )
        a1 = random_matrix(rng, field, rng.randrange(1, 3), l_)
        a2 = random_matrix(rng, field, rng.randrange(1, 3), l_)
        two = MatFq.identity(field, l_).vstack(MatFq.identity(field, l_))
        yield (
            f"vert_stacking #{trial}",
            tm.MuLit(a1.vstack(a2)),
            tm.t_compose(tm.t_tensor(tm.MuLit(a1), tm.MuLit(a2)), tm.MuLit(two)),
        )
        d_, r1_, r2_ = rng.randrange(1, 3), rng.randrange(1, 3), rng.randrange(1, 3)
        a = random_matrix(rng, field, d_, r1_)
        zero = MatFq.zeros(field, d_, r2_)
        yield (
            f"horizontal_stacking_with_zero right #{trial}",
            tm.MuLit(a.hstack(zero)),
            tm.t_tensor(tm.MuLit(a), tm.t_power(g("eps*"), r2_)),
        )
        yield (
            f"horizontal_stacking_with_zero left #{trial}",
            tm.MuLit(zero.hstack(a)),
            tm.t_tensor(tm.t_power(g("eps*"), r2_), tm.MuLit(a)),
        )
        b = random_matrix(rng, field, d_, r2_)
        glue = MatFq.identity(field, d_).hstack(MatFq.identity(field, d_))
        yield (
            f"horizontal_stacking #{trial}",
            tm.MuLit(a.hstack(b)),
            tm.t_compose(tm.MuLit(glue), tm.t_tensor(tm.MuLit(a), tm.MuLit(b))),
        )

    yield (
        "eq_axiom_corollary",
        tm.t_compose(g("ev"), tm.t_tensor(g("plus"), g("plus")), tm.t_tensor(I1, g("m*"), I1)),
        tm.t_compose(g("ev"), tm.t_tensor(I1, g("eps*"), I1)),
    )
    yield (
        "transferring_plus",
        tm.t_compose(g("ev"), tm.t_tensor(g("plus"), I1)),
        tm.t_compose(g("ev"), tm.t_tensor(I1, g("plus")),
                     tm.t_tensor(I1, g("mu", field.neg(1)), I1)),
    )
    for a in field.elements():
        if a:
            yield (
                f"dual_scalar_mult a={a}",
                tm.t_compose(g("ev"), tm.t_tensor(g("mu", a), g("mu", a))),
                g("ev"),
            )
            yield f"eps_and_mu a={a}", tm.t_compose(g("mu", a), g("eps")), g("eps")
    for k_ in (1, 2, 3):
        a = random_invertible(rng, field, k_)
        yield (
            f"transp_mu_A GL_{k_}",
            tm.t_compose(tm.ev_bar_term(k_), tm.t_tensor(tm.MuLit(a), tm.MuLit(a))),
            tm.ev_bar_term(k_),
        )
        yield (
            f"regular_system_of_eq GL_{k_}",
            tm.t_compose(tm.t_power(g("z*"), k_), tm.MuLit(a)),
            tm.t_power(g("z*"), k_),
        )
    yield (
        "comparing_with_zero 1",
        tm.t_compose(tm.t_tensor(I1, g("z*")), g("m*")),
        tm.t_compose(g("m"), tm.t_tensor(I1, g("z"))),
    )
    yield (
        "comparing_with_zero 2",
        tm.t_compose(g("m"), tm.t_tensor(I1, g("z"))),
        tm.t_compose(g("z"), g("z*")),
    )
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
        yield f"eps_star_mu_A k={k_}", lhs, tm.t_power(g("eps*"), k_ - 1)


# -- suite runners ------------------------------------------------------------


def run_term_pairs(field: Fq, pairs, data: FrobeniusData | None):
    """Check term pairs formally and, when data is given, on that structure.

    One formal memo serves every pair, so a subterm the pairs share is
    evaluated once per run.
    """
    from .dsl import eval_formal
    from .frobenius import first_difference

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


def _charged(pairs, dim: int, source: str, spent: int = 0) -> list:
    """The pairs as a list, each pair's sides added at D = dim to the running
    sum spent as it arrives (``frobenius.check_steps``), so a refusal builds
    no later pair."""
    from .frobenius import check_steps

    out = []
    for pair in pairs:
        spent = check_steps(dim, pair[1:], source, spent)
        out.append(pair)
    return out


def suite_axioms(field: Fq, n: int = 1):
    """Each axiom pair formally, then on the standard target by the structure checker."""
    from . import terms as tm
    from .frobenius import (
        check_axioms,
        check_steps,
        frobenius_axiom_terms,
        standard_target,
        target_dim,
        term_eval,
    )

    dim = target_dim(field, n)
    dim_term = tm.t_compose(tm.atom("eps*"), tm.atom("eps"))
    spent = check_steps(dim, [dim_term], "axioms")
    pairs = _charged(frobenius_axiom_terms(field), dim, "axioms", spent)
    data = standard_target(field, n)
    out = run_term_pairs(field, pairs, None)
    for name, cell in check_axioms(data, pairs):
        out.append(SuiteResult(f"standard target {name}", cell is None,
                               "" if cell is None else str(cell)))
    expected_dim = field.q**n
    dim = term_eval(data, dim_term)
    out.append(SuiteResult(
        f"dim = eps*.eps = q^n = {expected_dim}",
        dim.get(0, 0) == expected_dim,
    ))
    return out


def suite_lemmas(field: Fq, n: int = 1, seed: int = 0):
    from .frobenius import standard_target, target_dim

    pairs = _charged(mu_lemma_terms(field, seed), target_dim(field, n), "lemmas")
    return run_term_pairs(field, pairs, standard_target(field, n))


# Each per-trial cost below, in us, that a randomized suite charges to the
# work budget bounds from above the time of one trial measured over q <= 8,
# n <= 12 and max-arity <= 160 (2-vCPU x86-64 VM, Python 3.11), in terms of
# what a trial builds.
# The cells of any f_R a functor trial builds: more are skipped (_arity_limit).
HOM_CELLS = 2**12


def _arity_limit(field: Fq, n: int, top: int) -> int:
    """The largest arity sum a + b, up to top, whose hom space of q^(n(a+b))
    cells stays within HOM_CELLS, so that worst-case dense products stay
    fast; a draw past it is skipped.  Every sum is within it at n = 0, and a
    huge n admits only 0 without forming q^n."""
    if not n:
        return top
    limit = 0
    while limit < top and capped_power(field.q, n * (limit + 1), HOM_CELLS) <= HOM_CELLS:
        limit += 1
    return limit


def _knop_trial_us(max_arity: int) -> int:
    # the draws, the star and the diamond eliminate over at most N = 3m
    # strands: 40 us, about 1 us a cell of the N x N square, and N^3 / 300 us
    # of row operations, which take over past N = 300 (0.56 s a trial at m = 160)
    strands = 3 * max_arity
    return 40 + strands**2 + strands**3 // 300


def _functor_trial_us(field: Fq, n: int, max_arity: int) -> int:
    # f_R products of at most q^(2nm) cells, and no more than HOM_CELLS: about
    # 0.6 us a cell (2.2 ms a trial at q = 2, n = 12), plus 150 us
    return 150 + 3 * min(capped_power(field.q, 2 * n * max_arity, HOM_CELLS), HOM_CELLS) // 5


def _relinfty_trial_us(field: Fq, max_arity: int) -> int:
    # 120 us, compiling the realizations of new draws, which grows as (m+1)^3
    # (1.3 ms a trial at q = 2, m = 3), and maps of q^(2m) cells multiplied
    # and compared, about 6 us a cell (24.6 ms a trial at q = 8, m = 2)
    return 120 + 20 * (max_arity + 1) ** 3 + 6 * capped_power(field.q, 2 * max_arity, WORK_BUDGET)


def _check_ran(check: str, runs: int, wanted: int, field: Fq, n: int) -> None:
    """TooLarge if _arity_limit skipped so many draws that fewer than wanted trials ran."""
    if runs < wanted:
        raise TooLarge(
            f"{check}: only {runs} of {wanted} trials drew arities whose f_R have at most "
            f"{HOM_CELLS} cells at q = {field.q}, n = {n}"
        )


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

    def result(self, name: str) -> SuiteResult:
        """Passes when no trial failed."""
        detail = f"{self.bad} failures" + (f"; {self.first}" if self.first else "")
        return SuiteResult(name, self.bad == 0, detail)


def _composite(r, s) -> str:
    return f"s . r with r = {r.to_text()}, s = {s.to_text()}"


def _product(r1, r2) -> str:
    return f"r1 @ r2 with r1 = {r1.to_text()}, r2 = {r2.to_text()}"


def suite_functor(field: Fq, n: int, trials: int, seed: int, max_arity: int = 3):
    """Composition and monoidality of the specialization, randomized.

    Each distinct relation's f_R is built once per run, by ``f_r_matrix``.
    """
    from .concrete import f_r_matrix

    us = _functor_trial_us(field, n, max_arity)
    charge(trials * us, "functor", f"{trials} trials of about {us} us each")
    rng = random.Random(seed)
    comp, ten = _Tally(seed), _Tally(seed)
    built: dict = {}  # relation -> its f_R matrix at rank n

    def f_r(rel):
        mat = built.get(rel)
        if mat is None:
            mat = built[rel] = f_r_matrix(rel, n).mat
        return mat

    limit = _arity_limit(field, n, 4 * max_arity)
    attempts = 0
    while comp.runs < trials and attempts < trials * 20:
        attempts += 1
        s_, k_, l_ = (rng.randrange(max_arity + 1) for _ in range(3))
        if max(s_ + k_, k_ + l_, s_ + l_) > limit:
            continue
        r = random_relation(rng, field, s_, k_)
        s = random_relation(rng, field, k_, l_)
        sr, d = star(r, s)
        lhs = f_r(s) @ f_r(r)
        rhs = f_r(sr).scale(field.q ** (n * d))
        comp.record(lhs == rhs, lambda: _composite(r, s))
    _check_ran("functor composition", comp.runs, trials, field, n)
    while ten.runs < trials and attempts < trials * 40:
        attempts += 1
        s1, k1, s2, k2 = (rng.randrange(max_arity + 1) for _ in range(4))
        if s1 + s2 + k1 + k2 > limit:
            continue
        r1 = random_relation(rng, field, s1, k1)
        r2 = random_relation(rng, field, s2, k2)
        lhs = f_r(product(r1, r2))
        rhs = f_r(r1).kron(f_r(r2))
        ten.record(lhs == rhs, lambda: _product(r1, r2))
    _check_ran("functor monoidality", ten.runs, trials, field, n)
    return [
        comp.result(f"composition oracle q={field.q} n={n} ({comp.runs} trials)"),
        ten.result(f"monoidality oracle q={field.q} n={n} ({ten.runs} trials)"),
    ]


def suite_knop(field: Fq, trials: int, seed: int, max_arity: int = 3):
    """Orthogonal-indexing compatibility: diamond vs star, e vs d."""
    us = _knop_trial_us(max_arity)
    charge(trials * us, "knop", f"{trials} trials of about {us} us each")
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
    """Closure, zero defect, concrete realization, and rank stability; every
    trial is drawn before any is realized.  The trials' own work, in steps of
    about 1 us, is charged before the first draw, as knop and functor charge
    theirs, and the realizations' steps at D = q are added to that sum as
    the trials are drawn, so a refusal comes as soon as it is due and before
    any realization is evaluated."""
    from .concrete import rel_infty_stability
    from .frobenius import check_steps, hat_f, hat_f_term, standard_target

    rng = random.Random(seed)
    closure, realization, stability = _Tally(seed), _Tally(seed), _Tally(seed)
    closed_trials = []  # (r1, r2, r2 . r1, t2, r1 @ t2) of each closed trial
    realized = set()  # the distinct relations of the closed trials
    # the trials' own work, then their realizations' hat_f evaluation steps
    us = _relinfty_trial_us(field, max_arity)
    steps = charge(trials * us, "relinfty", f"{trials} trials of about {us} us each")
    for _ in range(trials):
        s_, k_, l_ = (rng.randrange(max_arity + 1) for _ in range(3))
        r1 = random_rel_infty(rng, field, s_, k_)
        r2 = random_rel_infty(rng, field, k_, l_)
        sr, d = star(r1, r2)
        closed = d == 0 and is_rel_infty(sr) and is_rel_infty(product(r1, r2))
        closure.record(closed, lambda: _composite(r1, r2))
        if closed:
            t2 = random_rel_infty(rng, field, rng.randrange(max_arity + 1), rng.randrange(max_arity + 1))
            trial = (r1, r2, sr, t2, product(r1, t2))
            closed_trials.append(trial)
            new = [hat_f_term(rel) for rel in dict.fromkeys(trial) if rel not in realized]
            realized.update(trial)
            steps = check_steps(field.q, new, "relinfty realizations", steps)
    data = standard_target(field, 1)
    for r1, r2, sr, t2, r1t2 in closed_trials:
        comp_ok = hat_f(data, r2) @ hat_f(data, r1) == hat_f(data, sr)
        ten_ok = hat_f(data, r1).kron(hat_f(data, t2)) == hat_f(data, r1t2)
        realization.record(
            comp_ok and ten_ok, lambda: _composite(r1, r2) if not comp_ok else _product(r1, t2)
        )
    # draw until the stability checks have run, within the functor's budget
    wanted = min(trials, 50)
    limit = _arity_limit(field, n + 1, 4)
    attempts = 0
    while stability.runs < wanted and attempts < wanted * 20:
        attempts += 1
        s_, k_ = rng.randrange(3), rng.randrange(3)
        if s_ + k_ > limit:
            continue
        r = random_rel_infty(rng, field, s_, k_)
        stability.record(rel_infty_stability(r, n), lambda: f"r = {r.to_text()}")
    _check_ran("relinfty rank stability", stability.runs, wanted, field, n + 1)
    return [
        closure.result(f"closure and zero defect q={field.q} ({trials} trials)"),
        realization.result(f"generator-level realization q={field.q}"),
        stability.result(f"rank stability n={n}"),
    ]
