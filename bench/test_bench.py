"""Tests of the benchmark itself; run with `python3 -m pytest bench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _one_pass(measure, workload: str, seed: int) -> dict:
    """The result line of `measure` (run.end_to_end or run.per_layer), one pass per child."""
    line, _notes = measure(workload, seed, 0, time.monotonic() + run.DEADLINE_S)
    return line


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0, 3.0, 2.0]) == (100, 3.0)
    p, value = run.tail([float(i) for i in range(1, 105)])
    assert p == 90 and value == 94.0  # 10 of 104 samples lie above it


def test_end_to_end_line_has_every_metric_nonzero():
    line = _one_pass(run.end_to_end, "formula_curves", 3)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in line["metrics"].values())


@pytest.mark.parametrize("workload", ["verify_blowup", "formula_curves"])
def test_traced_counters_repeat_and_outputs_match_untraced(workload):
    first, second = (_one_pass(run.per_layer, workload, 5) for _ in range(2))
    for line in (first, second):
        # correct also requires traced output digests to equal the untraced ones
        assert line["correct"] and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in tracing.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_blowup", "--seed", "1",
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wrong_outputs_are_caught():
    report = {"reconstruction_ok": True, "repair_ok": True, "alpha_uniform": True,
              "match": False, "symmetric": True, "checks_run": {"total": 10}}
    with pytest.raises(workloads.Wrong):
        workloads.check_construct("blowup_full(base(4,3))", 10, (0, json.dumps(report), ""))
    good = ("capacity   1  (1)\ntimeshare  15/16  (0.9375)\np1         1  (1)  x=2\n"
            "p2         -\np3         -\np4         -\n")
    args = (3, 3, Fraction(3, 8), Fraction(3, 4))
    assert workloads.check_compare(*args, (0, good, ""))[0] == 6
    with pytest.raises(workloads.Wrong):
        workloads.check_compare(*args, (0, good.replace("15/16", "17/16"), ""))
    with pytest.raises(workloads.Failed):
        workloads.check_compare(*args, (3, "", "error: bad input"))
