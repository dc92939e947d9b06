"""Seeded job streams for the four workloads.

A job is one `relcat` command line.  Each workload is a fixed cycle of job
kinds (the job mix); every job in the stream draws its own parameters (the
suite `--seed`, the expression, the `--t` value) from one `random.Random`
seeded with the benchmark seed, so the same seed gives the same stream and
no command line repeats inside a stream.  `meta` carries what the output
check needs to know about a job without re-reading its command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class Job:
    kind: str  # "verify", "eval", "specialize" or "gram"
    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False)


WORKLOADS = {
    "formal-kernel": (
        "verify knop and eval of generator chains: field, matrix.rref, relations.star and "
        "category.compose, with no concrete, frobenius or det_poly code"
    ),
    "functor-oracle": (
        "verify functor and specialize over prime fields: concrete.f_r_matrix and qmat take "
        "most of the time, and f_r_matrix inputs both repeat and do not"
    ),
    "generator-calculus": (
        "verify lemmas, relinfty and axioms: frobenius.term_apply over MuLit expansions "
        "takes most of the time"
    ),
    "gram-probe": (
        "gram over q in {2,3,4,5} with 1 <= s+k <= 2: the only workload with PolyQ-valued "
        "dual/trace and poly.det_poly, which sets p90"
    ),
}

# verify suites keep their trial counts small so that one cycle stays short
KNOP_TRIALS = 40
# 60 functor trials keep the spread of one (2, 2) job's time, which sets p90, small
FUNCTOR_TRIALS = 60
RELINFTY_ARGS = ("--trials", "16", "--max-arity", "2")

# (name, dom, cod) of the generator atoms used in eval chains
_BLOCKS = (
    ("id(1)", 1, 1), ("m", 2, 1), ("m*", 1, 2), ("sigma", 2, 2), ("plus", 2, 1),
    ("eps*", 1, 0), ("z*", 1, 0), ("ev", 2, 0), ("mu", 1, 1),
)
_SOURCES = (("eps", 0, 1), ("z", 0, 1), ("coev", 0, 2))
_MAX_ARITY = 3
_Q_ORDER = {"2": 2, "3": 3, "2^2": 4}  # the fields eval chains use


def _verify(suite: str, q: str, *extra: str):
    """A maker of `verify <suite>` jobs with a fresh `--seed`."""

    def make(rng) -> Job:
        argv = ("verify", suite, "--q", q) + extra + ("--seed", str(rng.randrange(10**9)))
        return Job("verify", argv, {"suite": suite, "q": q})

    return make


def _chain(rng, q: str) -> str:
    """A random well-typed composite of generator layers, arity <= 3."""
    width = rng.randrange(_MAX_ARITY + 1)
    layers = []
    for _ in range(rng.randint(2, 5)):
        blocks, left, out = [], width, 0
        while left:
            fits = [b for b in _BLOCKS if b[1] <= left and out + b[2] <= _MAX_ARITY]
            name, dom, cod = rng.choice(fits)
            if name == "mu":
                name = f"mu({rng.randrange(_Q_ORDER[q])})"
            blocks.append(name)
            left, out = left - dom, out + cod
        sources = [b for b in _SOURCES if out + b[2] <= _MAX_ARITY]
        if sources and (not blocks or rng.random() < 0.3):
            name, _, cod = rng.choice(sources)
            blocks.insert(rng.randrange(len(blocks) + 1), name)
            out += cod
        layers.append(blocks[0] if len(blocks) == 1 else "(" + " @ ".join(blocks) + ")")
        width = out
    return " . ".join(reversed(layers))


def _eval(q: str):
    def make(rng) -> Job:
        expr = _chain(rng, q)
        return Job("eval", ("eval", "--q", q, expr), {"q": q, "expr": expr})

    return make


def _specialize(n: int):
    """A maker of rational combinations of 2-4 F_2 relation literals of one type."""

    def make(rng) -> Job:
        s = rng.randrange(3)
        k = rng.randrange(1 if s == 0 else 0, 4 - s)
        text, terms = [], []
        for i in range(rng.randint(2, 4)):
            nrows = rng.randrange(s + k + 1)
            rows = [[rng.randrange(2) for _ in range(s + k)] for _ in range(nrows)]
            c0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            c1 = Fraction(rng.randint(1, 4), rng.randint(1, 3)) if rng.random() < 0.25 else 0
            sign = rng.choice((1, -1)) if i else 1
            coeff = str(c0) if not c1 else f"(t + {c0})" if c1 == 1 else f"({c1}*t + {c0})"
            lit = f"rel(2;{s},{k};{rows})".replace(" ", "")
            text.append(("" if not i else " + " if sign > 0 else " - ") + f"{coeff} * {lit}")
            terms.append((sign * c0, sign * Fraction(c1), rows))
        argv = ("specialize", "--q", "2", "--n", str(n), "".join(text))
        return Job("specialize", argv, {"s": s, "k": k, "n": n, "terms": terms})

    return make


def _gram(q: str, s: int, k: int, symbolic: bool):
    def make(rng) -> Job:
        argv = ("gram", "--q", q, "--s", str(s), "--k", str(k))
        t = None
        if not symbolic:
            t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
            argv += (f"--t={t}",)  # one word, so that argparse takes -1/2 as a value
        return Job("gram", argv, {"q": q, "s": s, "k": k, "t": t})

    return make


def _formal_kernel_cycle(cycle: int):
    for q in ("3", "2^2", "2^3"):
        yield _verify("knop", q, "--trials", str(KNOP_TRIALS))
        for eq in ("2", "3", "2^2"):
            yield _eval(eq)


def _functor_oracle_cycle(cycle: int):
    # 7 jobs: p50 falls on the (q, n) = (2, 1) functor job and p90 inside the
    # two (2, 2) ones.  A p50 on the 2 ms specialize jobs spread 13% between
    # runs: such small jobs follow the host's speed less than the gauge does.
    for (q, n), spec in zip((("2", 1), ("2", 2), ("3", 1), ("2", 2)), (1, 2, 1, None)):
        yield _verify("functor", q, "--n", str(n), "--trials", str(FUNCTOR_TRIALS))
        if spec:
            yield _specialize(spec)


def _generator_calculus_cycle(cycle: int):
    # 15 jobs: p50 falls among the relinfty and cheap axiom jobs and p90
    # inside the lemma jobs, two pools of 40 or more jobs a run.  The F_3
    # lemma suite is left out: it takes 0.9-2.5 s depending on its seed, so
    # one such job moved jobs_per_s by 10%.
    for q in ("2", "3", "5", "2^2", "7"):
        # the axiom suite reads no seed; the seed only keeps command lines distinct
        yield _verify("axioms", q)
        if q != "7":
            yield _verify("relinfty", "2", *RELINFTY_ARGS)
            yield _verify("lemmas", "2")
        if q in ("2", "5"):
            yield _verify("relinfty", "2", *RELINFTY_ARGS)


def _gram_probe_cycle(cycle: int):
    # t is symbolic in the first cycle and a fresh rational after it, so
    # every (q, s, k) meets symbolic t once and no command line repeats.
    # 20 jobs: s + k = 1 at q = 2, 3; s + k = 2 at every q, twice at q = 3
    # and (1, 1) twice at q = 5.  So p50 falls inside the doubled q = 3
    # (1, 1) job and p90 in the middle of the four q = 5 jobs.  s + k = 0
    # is left out: its Gram matrix is [1] whatever q is.
    for q in ("2", "3", "2^2", "5"):
        for total in ((1, 2) if q in ("2", "3") else (2,)):
            for s in range(total + 1):
                yield _gram(q, s, total - s, cycle == 0)
                if total == 2 and (q == "3" or (q == "5" and s == 1)):
                    yield _gram(q, s, total - s, False)


_CYCLES = {
    "formal-kernel": _formal_kernel_cycle,
    "functor-oracle": _functor_oracle_cycle,
    "generator-calculus": _generator_calculus_cycle,
    "gram-probe": _gram_probe_cycle,
}


def stream(workload: str, seed: int):
    """Yield (cycle index, Job) for ever; no command line repeats.

    A draw that repeats an earlier command line is redrawn from the same
    maker, so the job mix of every cycle stays fixed.
    """
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    cycle = 0
    while True:
        for make in _CYCLES[workload](cycle):
            job = make(rng)
            while job.argv in seen:
                job = make(rng)
            seen.add(job.argv)
            yield cycle, job
        cycle += 1
