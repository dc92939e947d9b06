"""One benchmark run in a fresh interpreter: a closed loop over a job stream.

Reads a JSON request on stdin and writes one JSON result on stdout.  One
client, no threads: each job is started only after the previous one has
returned, in-process through `relcat.cli.main`.  The loop always ends on a
cycle boundary, so every run measures whole copies of the workload's job
mix.  The loop stops at the first boundary after `seconds` have passed,
`min_cycles` cycles and `min_jobs` jobs have run, or at `max_cycles`.  A
run with `max_cycles == min_cycles` runs a fixed job list, so its call
counts repeat exactly.

Between jobs, about every GAUGE_EVERY_S seconds, the loop times a fixed
Fraction loop, the gauge.  A shared cloud VM can change speed by up to 2x
within a minute; the gauge samples let `run.py` scale each job's time to a
reference host speed.  Gauge time is not job time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
from fractions import Fraction
from time import perf_counter

import jobs

GAUGE_ITERATIONS = 2000
# the gauge runs after the first job that ends this long after the last sample
GAUGE_EVERY_S = 0.25


def gauge_s() -> float:
    """Time of a fixed pure-Python Fraction loop: a gauge of host speed.

    The collector is off while it runs, so the heap the jobs leave behind
    does not slow it down.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, GAUGE_ITERATIONS):
            acc += Fraction(i % 97 + 1, i % 89 + 2)
        return perf_counter() - t0
    finally:
        gc.enable()


def run_job(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        ms = (perf_counter() - t0) * 1000.0
    return {"rc": rc, "ms": ms, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


def main() -> int:
    req = json.load(sys.stdin)
    sys.path.insert(0, req["src"])
    import relcat.cli

    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = relcat.cli.main  # looked up after install, so it is the traced one

    records = []
    t_start = perf_counter()
    gauge = [(0.0, gauge_s())]  # (seconds since start, gauge time)
    for cycle, job in jobs.stream(req["workload"], req["seed"]):
        if records and cycle != records[-1]["cycle"]:  # a cycle boundary
            if req["max_cycles"] is not None and cycle >= req["max_cycles"]:
                break
            if (cycle >= req["min_cycles"] and len(records) >= req["min_jobs"]
                    and perf_counter() - t_start >= req["seconds"]):
                break
        if tracer:
            tracer.start_job()
        t_job = perf_counter() - t_start
        record = run_job(cli_main, job.argv)
        record.update(cycle=cycle, argv=list(job.argv), t=t_job)
        records.append(record)
        now = perf_counter() - t_start
        if now - gauge[-1][0] >= GAUGE_EVERY_S:
            gauge.append((now, gauge_s()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gauge.append((perf_counter() - t_start, gauge_s()))

    result = {
        "records": records,
        "peak_rss_mb": peak_rss_mb,
        "gauge": gauge,
        "python": sys.version.split()[0],
    }
    if tracer:
        result["stats"] = tracer.stats
        result["repeat_frac"] = {name: tracer.repeat_frac(name) for name in tracer.inputs}
        result["job_self"] = tracer.job_self
        tracer.dump(req["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
