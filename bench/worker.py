"""One workload in one fresh process: set up, run passes, report JSON.

Started by run.py, never by hand. The last line of stdout is the result. With
--setup-only it stops after set-up and reports only the set-up time. With
--trace-out it wraps regencode's layers (see tracing.py) before the first pass,
measures GF(2^8) mul/inv, and at the end writes the first pass's spans to
that path. Layer and mul/inv times are reported in reference seconds, like
the job times; the spans written out keep wall-clock nanoseconds.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]

PROBE_PERIOD_S = 0.05
PROBE_LOOPS = 10_000
# The probe loop's time on the reference host (2 vCPU Xeon VM) in its fast
# phase: it fixes the unit of reference seconds, so they read close to wall
# seconds on a quiet host.
REFERENCE_PROBE_S = 6e-4


def probe() -> float:
    """Time one fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the host's speed every PROBE_PERIOD_S from SIGALRM.

    The host's CPU speed swings by up to 1.6x, in phases of seconds to
    minutes, for this loop and for regencode alike. A job's time is converted
    to reference seconds with the probes taken during and around it, which
    removes most of that swing; the probes' own time is left out of the job.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, *_):
        start = time.perf_counter()
        self.seconds.append(probe())
        self.starts.append(start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start - PROBE_PERIOD_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_PERIOD_S)
        if lo == hi:  # no sample near: take the neighbours
            lo, hi = max(lo - 1, 0), hi + 1
        inside = sum(
            d for t, d in zip(self.starts[lo:hi], self.seconds[lo:hi]) if start <= t < end
        )
        speed = statistics.median(self.seconds[lo:hi])
        return (end - start - inside) * REFERENCE_PROBE_S / speed


def run_pass(jobs, tracer):
    """Run each job once, in order, with one caller; return per-job rows."""
    rows = []
    for offset, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = offset
        row = {"name": job.name, "ok": True, "wrong": False, "checks": 0,
               "digest": "", "error": ""}
        row["start"] = time.perf_counter()
        try:
            raw = job.run()
        except Exception as exc:  # MemoryError included: a failed job, not a crash
            raw, row["ok"], row["error"] = None, False, f"{type(exc).__name__}: {exc}"
        row["end"] = time.perf_counter()
        if row["ok"]:
            try:
                row["checks"], row["digest"] = job.check(raw)
            except workloads.Failed as exc:
                row["ok"], row["error"] = False, str(exc)
            except Exception as exc:  # Wrong, or an output the check cannot parse
                row.update(ok=False, wrong=True, error=f"{type(exc).__name__}: {exc}")
        row["error"] = row["error"][:500]
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    regencode = workloads.load_program(ROOT)
    workload = workloads.make(args.workload, ROOT, args.seed)
    workload.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    setup_ref_s = setup_s * REFERENCE_PROBE_S / statistics.median(probe() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    tracer = micro = None
    if args.trace_out:
        micro = tracing.gf_micro(regencode.GF256)
        to_ref = REFERENCE_PROBE_S / statistics.median(probe() for _ in range(5))
        micro = {k: v * to_ref for k, v in micro.items()}
        tracer = tracing.Tracer()
        tracer.install()

    passes, layers, first_spans = [], [], None
    with SpeedProbe() as speed:
        start = time.perf_counter()
        # Start another pass only while it is expected to end within --seconds.
        while not passes or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= args.seconds:
            passes.append({"jobs": run_pass(workload.jobs(), tracer)})
            if tracer is not None:
                metrics, spans = tracer.end_pass()
                layers.append(metrics)
                if first_spans is None:
                    first_spans = spans
        time.sleep(2 * PROBE_PERIOD_S)  # a sample after the last job
    for row in (row for p in passes for row in p["jobs"]):
        start, end = row.pop("start"), row.pop("end")
        row["s"] = end - start
        row["ref_s"] = speed.reference_seconds(start, end)

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        # Layer times in reference seconds, by their pass's reference/wall ratio.
        for p, metrics in zip(passes, layers):
            to_ref = sum(r["ref_s"] for r in p["jobs"]) / sum(r["s"] for r in p["jobs"])
            for k in metrics:
                if k.endswith(("_s", ".s")):
                    metrics[k] *= to_ref
        result["layers"] = layers
        result["micro"] = micro
        job_names = [[i, row["name"]] for i, row in enumerate(passes[0]["jobs"])]
        tracer.dump(args.trace_out, first_spans, job_names)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
