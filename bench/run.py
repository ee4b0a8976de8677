"""regencode benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 bench/run.py                      # every workload, one table
    python3 bench/run.py --workload verify_wide --seed 3 --trace 0
    python3 bench/run.py --workload verify_wide --seed 3 --trace 1

Each workload runs in its own fresh, single-threaded child process, capped
with RLIMIT_AS, as a closed loop with one caller: the next job starts when the
previous one has returned. Whole passes over the workload's job list repeat
while the next one is expected to end within --seconds. Times are reference
seconds (see worker.SpeedProbe). With --trace 0 the end-to-end metrics are
printed; with --trace 1 an untraced and a traced child run, and the per-layer
metrics of the traced one are printed. The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

CAP_MB = 1536  # per workload child; nested_decode peaks near 1.1 GB
PROBE_CAP_MB = 512  # the budget probe should be refused before it allocates
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # whole command, so that it ends within 180 s
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _limit(mb: int):
    def apply():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = mb << 20
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return apply


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    env.pop("REGEN_BUDGET", None)
    return env


def _spawn(argv: list[str], cap_mb: int, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    try:
        return subprocess.run(
            argv, cwd=ROOT, env=_env(), preexec_fn=_limit(cap_mb),
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"child ran past the deadline: {argv[1:4]}") from exc


def run_worker(workload, seed, seconds, deadline, setup_only=False, trace_out=None) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if setup_only:
        argv.append("--setup-only")
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = _spawn(argv, CAP_MB, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_probe(deadline) -> tuple[bool, str]:
    """The nested_decode budget probe: passes iff the CLI refuses with exit 4."""
    argv = [sys.executable, "-m", "regencode.cli", *workloads.PROBE_ARGV]
    proc = _spawn(argv, PROBE_CAP_MB, deadline)
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    return proc.returncode == 4, f"exit {proc.returncode}: {last}"


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile p >= 50 with at least 10 samples beyond it.

    Nearest-rank percentiles. With fewer than 20 samples no such p exists and
    the maximum is returned as p = 100.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 100, xs[-1]


def _jobs(result: dict) -> list[dict]:
    return [row for p in result["passes"] for row in p["jobs"]]


def job_times(result: dict, key: str = "ref_s") -> list[float]:
    """Each job's median time over the run's passes, in job-list order."""
    passes = result["passes"]
    return [
        statistics.median(p["jobs"][i][key] for p in passes)
        for i in range(len(passes[0]["jobs"]))
    ]


def _errors(jobs: list[dict]) -> list[str]:
    return [f"{row['name']}: {row['error']}" for row in jobs if not row["ok"]]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    """Untraced run: returns (result line, human-readable notes)."""
    def setup_only():
        return run_worker(workload, seed, seconds, deadline, setup_only=True)

    # Set-up samples come from both sides of the measured run, so that they
    # see more than one of the host's speed phases.
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    main = run_worker(workload, seed, seconds, deadline)
    setups.append(main)
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    jobs = _jobs(main)
    times = job_times(main)
    attempted, failed = len(jobs), sum(1 for row in jobs if not row["ok"])
    p, tail_s = tail(times)
    run_s = sum(times)
    metrics = {
        "setup_s": statistics.median(x["setup_ref_s"] for x in setups),
        "run_s": run_s,
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "checks_per_s": sum(row["checks"] for row in main["passes"][0]["jobs"]) / run_s,
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    notes = {
        "failed_frac": failed / attempted,
        "passes": len(main["passes"]),
        "job_tail": f"p{p} of {len(times)} jobs",
        "wall run_s": sum(job_times(main, "s")),
        "wall setup_s": statistics.median(x["setup_s"] for x in setups),
        "errors": _errors(jobs),
    }
    if workload == "nested_decode":
        # Reported apart: it fails by design until the budget predicts memory,
        # and the result line counts only operations expected to succeed.
        refused, outcome = run_probe(deadline)
        notes["budget probe"] = f"{'passed' if refused else 'FAILED'} ({outcome})"
    line = {"correct": not any(row["wrong"] for row in jobs), "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, notes


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    """Untraced then traced run: returns (result line, human-readable notes)."""
    OUT.mkdir(exist_ok=True)
    plain = run_worker(workload, seed, seconds, deadline)
    traced = run_worker(workload, seed, seconds, deadline,
                        trace_out=OUT / f"spans-{workload}-seed{seed}.json")
    layers = traced["layers"]
    repeat = all(lay[k] == layers[0][k] for lay in layers for k in tracing.EXACT)
    same_outputs = [r["digest"] for r in plain["passes"][0]["jobs"]] == [
        r["digest"] for r in traced["passes"][0]["jobs"]
    ]
    metrics = {
        k: layers[0][k] if k in tracing.EXACT else statistics.median(lay[k] for lay in layers)
        for k in layers[0]
    }
    metrics.update(traced["micro"])
    metrics["trace_overhead"] = sum(job_times(traced)) / sum(job_times(plain))
    jobs = _jobs(plain) + _jobs(traced)
    notes = {
        "passes": f"{len(plain['passes'])} untraced, {len(layers)} traced",
        "counters_repeat": repeat,
        "traced_outputs_equal_untraced": same_outputs,
        "errors": _errors(jobs),
    }
    line = {
        "correct": repeat and same_outputs and not any(row["wrong"] for row in jobs),
        "attempted": len(jobs),
        "failed": sum(1 for row in jobs if not row["ok"]),
        "metrics": metrics,
    }
    return line, notes


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _with_units(metrics: dict, spec_metrics: list[dict]) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, printed as a table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not (ROOT / "src" / "regencode" / "__init__.py").is_file():
        print(f"error: no regencode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    measure = per_layer if args.trace else end_to_end
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        deadline = (start if args.workload else time.monotonic()) + DEADLINE_S
        try:
            line, notes = measure(name, args.seed, args.seconds, deadline)
            line["metrics"] = _with_units(line["metrics"], spec_metrics)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        for metric, cell in line["metrics"].items():
            print(f"  {metric:<28} {cell['value']:>16.6g} {cell['unit']}")
        print(f"  correct={line['correct']} attempted={line['attempted']} failed={line['failed']}")
        for key, value in notes.items():
            if key == "errors":
                for error in value[:5]:
                    print(f"  failed: {error}")
            else:
                print(f"  {key}: {value}", flush=True)
    if args.workload:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
