"""Benchmark of the relcat CLI: four workloads of seeded CLI jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a relcat checkout; it reads the package from
`src/`.  Every run measures in fresh interpreters and checks every job's
output with the untimed oracles in `oracles.py`.

`--trace 0` runs the workload's job stream in a closed loop for at least S
seconds and reports the end-to-end metrics: jobs_per_s, job_ms_p50,
job_ms_p90, setup_s (interpreter start plus `import relcat.cli`, median
over several interpreters), peak_rss_mb and ok_frac (1 - failed_frac).

`--trace 1` runs a fixed prefix of the stream twice, untraced and then
traced by `tracer.py`, and reports per-layer counts, self times, repeat
shares, the self-time shares of the jobs beyond p90 and the overhead of
tracing.

Times are scaled to a reference host speed: each job's time is multiplied
by GAUGE_REF_S over the mean of the gauge samples (see `worker.py`) taken
nearest to it, so a stretch of slow host slows the gauge and the job
alike and cancels out.  The raw figures are printed and kept in the
results file beside the scaled ones.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Per-job
stdout digests, the combined digest, the host record and (traced) the span
file go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import jobs
import oracles
from worker import gauge_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# gauge time that scaled figures refer to: about what the gauge takes on a
# quiet 2-core x86-64 cloud host under Python 3.11
GAUGE_REF_S = 0.005
# gauge samples a job is scaled by (about four seconds of them): of the
# windows of 2 to 32 samples, by mean or median, tried on two sets of ten
# seeds, the mean of 16 gave the smallest spreads between runs overall
GAUGE_WINDOW = 16
SETUP_INTERPRETERS = 11
WORKER_TIMEOUT_S = 170
# the timed loop runs at least this many jobs, so that at least ten lie beyond p90
MIN_JOBS = 110
# cycles of the fixed job list that the traced run replays and that the
# combined stdout digest covers; every timed run covers them too
FIXED_CYCLES = {
    "formal-kernel": 8,
    "functor-oracle": 6,
    "generator-calculus": 3,
    "gram-probe": 2,
}
MODULES = ("field", "matrix", "relations", "poly", "category", "terms", "dsl",
           "qmat", "concrete", "frobenius", "suites", "cli")
# (function, reported stats) of the per-layer table in README.md
LAYER_STATS = (
    ("field.Fq.mul", "calls self_s"), ("field.Fq.init", "calls self_s"),
    ("matrix.MatFq.init", "calls self_s"), ("matrix.MatFq.rref", "calls self_s repeat_frac"),
    ("relations.star", "calls self_s repeat_frac"), ("relations.knop_diamond", "calls self_s"),
    ("relations.product", "self_s"),
    ("category.compose", "calls self_s"), ("category.tensor", "calls self_s"),
    ("category.dual", "calls self_s"), ("category.trace", "calls self_s"),
    ("poly.PolyQ.mul", "calls"), ("poly.det_poly", "calls self_s"),
    ("poly.rational_roots", "self_s"),
    ("dsl.parse", "self_s"), ("dsl.eval_formal", "calls self_s"),
    ("concrete.f_r_matrix", "calls self_s repeat_frac"), ("concrete.specialize", "self_s"),
    ("qmat.QMat.matmul", "calls self_s"), ("qmat.QMat.kron", "calls self_s"),
    ("qmat.QMat.rank", "self_s"),
    ("frobenius.term_eval", "calls self_s"), ("frobenius.term_apply", "calls self_s"),
    ("terms.mu_matrix_term", "calls"), ("frobenius.FrobeniusData.swap", "calls"),
    ("frobenius.hat_f", "calls repeat_frac"), ("frobenius.standard_target", "self_s"),
    ("frobenius.check_axioms", "self_s"), ("cli.main", "self_s"),
)
UNITS = {"calls": "count", "self_s": "s", "repeat_frac": "frac"}


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup_s(env) -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh interpreter importing relcat.cli."""
    cmd = [sys.executable, "-c", "import relcat.cli"]
    scaled, raw = [], []
    for i in range(SETUP_INTERPRETERS + 1):
        before = gauge_s()
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
        took = perf_counter() - t0
        if proc.returncode != 0:
            raise RunError(f"import relcat.cli failed: {proc.stderr.strip()[-500:]}")
        if i:  # the first import writes the bytecode caches
            raw.append(took)
            scaled.append(took * GAUGE_REF_S / statistics.median((before, gauge_s())))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(env, **req) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(req), env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RunError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def scale_times(run: dict) -> list[float]:
    """Each job's ms scaled by GAUGE_REF_S / the mean of the gauge samples
    nearest to its midpoint, GAUGE_WINDOW of them."""
    at = [t for t, _ in run["gauge"]]
    out = []
    for rec in run["records"]:
        i = bisect.bisect_left(at, rec["t"] + rec["ms"] / 2000.0)
        lo = max(0, i - GAUGE_WINDOW // 2)
        near = [g for _, g in run["gauge"][lo : lo + GAUGE_WINDOW]]
        out.append(rec["ms"] * GAUGE_REF_S / statistics.mean(near))
    return out


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -int(-len(ordered) * share // 1)) - 1]


def rate_and_percentiles(ms: list[float]) -> tuple[float, float, float]:
    """Jobs per second of busy time, p50 and p90, from per-job ms."""
    return len(ms) / (sum(ms) / 1000.0), percentile(ms, 0.5), percentile(ms, 0.9)


def check_records(workload: str, seed: int, records) -> list:
    """Attach each job's digest and check verdict; returns the failures."""
    failures = []
    stream = islice(jobs.stream(workload, seed), len(records))
    for (_, job), rec in zip(stream, records):
        if list(job.argv) != rec["argv"]:
            raise RunError("worker and checker disagree on the job stream")
        rec["stdout_sha256"] = hashlib.sha256(rec["stdout"].encode()).hexdigest()
        rec["check"] = oracles.check(job, rec)
        if rec["check"] is not None:
            failures.append((rec["argv"], rec["check"]))
    return failures


def combined_digest(records, cycles: int) -> str:
    """sha256 over the stdout digests of the fixed job list, in order."""
    fixed = [r["stdout_sha256"] for r in records if r["cycle"] < cycles]
    return hashlib.sha256("\n".join(fixed).encode()).hexdigest()


def layer_metrics(traced: dict, untraced: dict) -> dict:
    stats, repeat = traced["stats"], traced["repeat_frac"]
    out = {}
    for name, wanted in LAYER_STATS:
        calls, own = stats.get(name, (0, 0.0))
        values = {"calls": calls, "self_s": own, "repeat_frac": repeat.get(name)}
        for stat in wanted.split():
            out[f"{name}.{stat}"] = (values[stat], UNITS[stat])

    module_self = dict.fromkeys(MODULES, 0.0)
    for name, (_, own) in stats.items():
        module = name.split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + own
    for m in MODULES:
        out[f"{m}.self_s"] = (module_self[m], "s")

    # jobs beyond p90 of the untraced pass over the same list
    times = scale_times(untraced)
    p90 = percentile(times, 0.9)
    tail = [traced["job_self"][i] for i, ms in enumerate(times) if ms > p90]
    tail_self = {m: sum(job.get(m, 0.0) for job in tail) for m in MODULES}
    tail_total = sum(tail_self.values()) or 1.0
    for m in MODULES:
        out[f"tail_p90.{m}.self_frac"] = (tail_self[m] / tail_total, "frac")

    rate_untraced = rate_and_percentiles(times)[0]
    rate_traced = rate_and_percentiles(scale_times(traced))[0]
    out["trace.jobs_per_s_untraced"] = (rate_untraced, "1/s")
    out["trace.jobs_per_s_traced"] = (rate_traced, "1/s")
    out["trace.overhead_jobs_per_s"] = (rate_traced - rate_untraced, "1/s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "relcat" / "cli.py").is_file():
        print(f"error: no relcat sources under {SRC}; run from a relcat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the eval oracle imports relcat
    env = _env()
    fixed = FIXED_CYCLES[args.workload]
    common = {"src": str(SRC), "workload": args.workload, "seed": args.seed}
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            plain = run_worker(env, **common, trace=False, seconds=0, min_cycles=fixed,
                               min_jobs=0, max_cycles=fixed)
            run = run_worker(env, **common, trace=True, seconds=0, min_cycles=fixed,
                             min_jobs=0, max_cycles=fixed, spans_path=str(spans_path))
            if [r["stdout"] for r in plain["records"]] != [r["stdout"] for r in run["records"]]:
                raise RunError("tracing changed the output of a job")
        else:
            setup_s, setup_raw_s = measure_setup_s(env)
            run = run_worker(env, **common, trace=False, seconds=args.seconds,
                             min_cycles=fixed, min_jobs=MIN_JOBS, max_cycles=None)
        records = run["records"]
        failures = check_records(args.workload, args.seed, records)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = len(records), len(failures)
    raw = {}
    if args.trace:
        metrics = layer_metrics(run, plain)
    else:
        rate, p50, p90 = rate_and_percentiles(scale_times(run))
        metrics = {
            "jobs_per_s": (rate, "1/s"),
            "job_ms_p50": (p50, "ms"),
            "job_ms_p90": (p90, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
        rate, p50, p90 = rate_and_percentiles([r["ms"] for r in records])
        raw = {"jobs_per_s": rate, "job_ms_p50": p50, "job_ms_p90": p90, "setup_s": setup_raw_s,
               "failed_frac": failed / attempted}

    digest = combined_digest(records, fixed)
    gauge = [g for _, g in run["gauge"]]
    host = {"python": run["python"], "nproc": os.cpu_count(), "gauge_samples": len(gauge),
            "gauge_s_median": statistics.median(gauge), "gauge_s_min": min(gauge),
            "gauge_s_max": max(gauge)}
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    payload = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_path.write_text(json.dumps({
        "workload": args.workload, "why": jobs.WORKLOADS[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host, "gauge_ref_s": GAUGE_REF_S,
        "stdout_sha256": digest, "fixed_cycles": fixed, "metrics": payload, "raw": raw,
        "gauge": run["gauge"],
        "jobs": [{key: r[key] for key in ("argv", "cycle", "t", "ms", "rc", "stdout_sha256", "check")}
                 for r in records],
    }, indent=1))

    busy = sum(r["ms"] for r in records) / 1000.0
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs, {busy:.2f} s busy, "
          f"{failed} failed")
    for argv_, reason in failures[:5]:
        print(f"  FAILED {' '.join(argv_)[:100]}: {reason}")
    print(f"host: python {host['python']}, nproc {host['nproc']}, gauge "
          f"{host['gauge_s_median'] * 1000:.2f} ms median of {len(gauge)} "
          f"({host['gauge_s_min'] * 1000:.2f}-{host['gauge_s_max'] * 1000:.2f}), "
          f"scaled to {GAUGE_REF_S * 1000:.2f} ms")
    print(f"stdout sha256 of the first {fixed} cycles: {digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in raw.items():
        print(f"  raw {name} = {value:.6g}")
    if args.trace:
        top = sorted(run["stats"].items(), key=lambda item: -item[1][1])[:10]
        print("largest self times: " + ", ".join(f"{n} {own:.3f} s" for n, (_, own) in top))
    print(f"results: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
