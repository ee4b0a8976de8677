"""Record the benchmark's baseline into bench/BASELINE.json.

    python3 bench/baseline.py                  # about 50 minutes on 2 vCPUs

For each workload of BENCHMARK.json it makes SETS sets of SEEDS untraced
runs of run_seconds each (each run with its own seed, workloads taken in
turn) and reports per set and metric the median, quartiles and spread, the
latter as (Q3 - Q1) / median as `statistics.quantiles(values, n=4)` gives
them. Then it makes two traced runs with one seed per workload and records
whether the exact counters repeat, and runs the nested_decode budget probe
once. Last comes the recipe ladder: each construct recipe built and verified
once in its own capped process, giving build time, verify time, checks and
peak RSS per recipe.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import tracing
import workloads

SETS = 2
SEEDS = 10


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise run.BenchError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(lines: list[dict]) -> dict:
    out = {"runs": len(lines), "correct": all(x["correct"] for x in lines),
           "attempted": sum(x["attempted"] for x in lines),
           "failed": sum(x["failed"] for x in lines), "metrics": {}}
    for name, cell in lines[0]["metrics"].items():
        values = [x["metrics"][name]["value"] for x in lines]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out["metrics"][name] = {
            "unit": cell["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values,
        }
    return out


def ladder_child(recipe: str) -> None:
    """Build and verify one recipe in this process; print one JSON line."""
    import resource

    workloads.load_program(run.ROOT)
    from regencode import cli, verifier
    from regencode.tradeoff import OperatingPoint

    t0 = time.perf_counter()
    code = cli.parse_recipe(recipe)
    t1 = time.perf_counter()
    predicted = OperatingPoint(code.alpha_symbols, code.gamma_symbols, code.file_len)
    report = verifier.measure_and_compare(code, predicted)
    t2 = time.perf_counter()
    p = code.params
    print(json.dumps({
        "recipe": recipe, "n": p.n, "alpha": code.alpha_symbols, "B": code.file_len,
        "build_s": t1 - t0, "verify_s": t2 - t1, "checks": report.checks_run["total"],
        "ok": report.ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


def ladder() -> list[dict]:
    rows = []
    for recipe in [*workloads.VERIFY_BLOWUP, *workloads.VERIFY_WIDE]:
        proc = run._spawn([sys.executable, str(Path(__file__).resolve()), "--ladder-recipe",
                           recipe], run.CAP_MB, time.monotonic() + 170)
        if proc.returncode != 0:
            raise run.BenchError(f"ladder {recipe}: {proc.stderr[-2000:]}")
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    # iterate(base(3,2),2) is not verified in full (about 230 s): one nested_decode
    # pass gives its build, encode, one reconstruct and n repairs instead.
    nested = run.run_worker("nested_decode", 0, 1, time.monotonic() + 170)
    rows.append({
        "recipe": workloads.NESTED_RECIPE, "jobs_s": {
            row["name"]: row["s"] for row in nested["passes"][0]["jobs"]
        }, "peak_rss_mb": nested["peak_rss_mb"],
    })
    return rows


def main() -> int:
    if sys.argv[1:2] == ["--ladder-recipe"]:
        ladder_child(sys.argv[2])
        return 0

    spec = run._spec()
    names = [w["name"] for w in spec["workloads"]]
    started = time.time()
    sets = {name: [] for name in names}
    for s in range(SETS):
        lines = {name: [] for name in names}
        for i in range(SEEDS):
            seed = 1 + s * SEEDS + i
            for name in names:
                lines[name].append(_run(name, seed, 0))
                print(f"set {s + 1} seed {seed} {name} done", file=sys.stderr, flush=True)
        for name in names:
            sets[name].append(_summary(lines[name]))

    result = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        traced = [_run(name, 1, 1) for _ in range(2)]
        counters = [{k: t["metrics"][k]["value"] for k in tracing.EXACT} for t in traced]
        result["workloads"][name] = {
            "end_to_end_sets": sets[name],
            "per_layer": {k: c["value"] for k, c in traced[0]["metrics"].items()},
            "per_layer_correct": all(t["correct"] for t in traced),
            "exact_counters_repeat": all(c == counters[0] for c in counters),
        }
        print(f"{name} summarized", file=sys.stderr, flush=True)
    refused, outcome = run.run_probe(time.monotonic() + 170)
    result["budget_probe"] = {"argv": workloads.PROBE_ARGV, "refused": refused,
                              "outcome": outcome}
    result["ladder"] = ladder()
    result["wall_s"] = time.time() - started
    (run.BENCH / "BASELINE.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
