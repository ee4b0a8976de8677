"""Exhaustive and sampled validation of concrete storage codes.

Checks the properties a LinearDss promises: every k-subset reconstructs,
every (failed, helpers) pair repairs exactly, bandwidth totals match the
declared gamma, per-helper symmetry, and agreement of the measured
(alpha, gamma, B) with a predicted operating point. The code is linear, so
both sweeps are proofs: a k-subset rebuilds the file iff its stacked
generators have column rank B, and a linear repair rule (dss.RepairRule)
is exact for every file iff one run on the generator rows returns the
failed node's rows. That run, holding no data, measures the bandwidth.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .dss import LinearDss, ResourceError, repair
from .gf import FieldMatrix, mat_rank
from .tradeoff import OperatingPoint

EXHAUSTIVE_LIMIT = 10**5


@dataclass
class VerificationReport:
    label: str
    mode: dict
    reconstruction_ok: bool = True
    reconstruction_counterexample: tuple[int, ...] | None = None
    repair_ok: bool = True
    repair_counterexample: tuple | None = None
    checks_run: dict | None = None
    measured: OperatingPoint | None = None
    alpha_uniform: bool = True
    gamma_constant: bool = True
    symmetric: bool = True
    symmetry_max_deviation: int = 0
    predicted: OperatingPoint | None = None
    match: bool | None = None
    # declared bandwidth that ok holds the measured gamma to; not in the JSON form
    gamma_declared: int | None = None

    @property
    def ok(self) -> bool:
        passed = self.reconstruction_ok and self.repair_ok and self.alpha_uniform
        if self.measured is not None and self.gamma_declared is not None:
            if self.mode.get("kind") == "sampled":
                # a sample sees only some repairs, so it bounds gamma from below
                passed = passed and self.measured.gamma <= self.gamma_declared
            else:
                passed = passed and self.measured.gamma == self.gamma_declared
        if self.match is not None:
            passed = passed and self.match
        return passed

    def to_json_dict(self) -> dict:
        def point(p):
            if p is None:
                return None
            return {
                "alpha": str(p.alpha),
                "gamma": str(p.gamma),
                "file_size": str(p.file_size),
            }

        return {
            "label": self.label,
            "mode": self.mode,
            "reconstruction_ok": self.reconstruction_ok,
            "reconstruction_counterexample": (
                None
                if self.reconstruction_counterexample is None
                else list(self.reconstruction_counterexample)
            ),
            "repair_ok": self.repair_ok,
            "repair_counterexample": (
                None
                if self.repair_counterexample is None
                else [
                    self.repair_counterexample[0],
                    list(self.repair_counterexample[1]),
                ]
            ),
            "checks_run": self.checks_run,
            "measured": point(self.measured),
            "alpha_uniform": self.alpha_uniform,
            "gamma_constant": self.gamma_constant,
            "symmetric": self.symmetric,
            "symmetry_max_deviation": self.symmetry_max_deviation,
            "predicted": point(self.predicted),
            "match": self.match,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _plan(dss: LinearDss, mode: str, seed: int, trials: int):
    """One exhaustive-or-sampled decision for the k-subsets and the repair pairs.

    The decision rests on the total check count, so the mode holds for both
    sweeps. Returns (mode_info, counts, subsets, pairs), where counts maps
    "reconstruction" and "repair" to the number of subsets and pairs. Each
    sampled sweep draws from its own Random(seed), with replacement; the
    sampled mode_info reports how many drawn subsets and pairs are distinct.
    """
    n, k, d = dss.params.n, dss.params.k, dss.params.d
    counts = {"reconstruction": comb(n, k), "repair": n * comb(n - 1, d)}
    total = sum(counts.values())
    if mode == "exhaustive" or (mode == "auto" and total <= EXHAUSTIVE_LIMIT):
        if total > EXHAUSTIVE_LIMIT:
            raise ResourceError(
                f"{total} checks exceed the exhaustive ceiling {EXHAUSTIVE_LIMIT}"
            )
        subsets = combinations(range(n), k)
        pairs = (
            (f, helpers)
            for f in range(n)
            for helpers in combinations([i for i in range(n) if i != f], d)
        )
        return {"kind": "exhaustive"}, counts, subsets, pairs
    if mode not in ("auto", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    rnd = random.Random(seed)
    subsets = [tuple(sorted(rnd.sample(range(n), k))) for _ in range(trials)]
    rnd = random.Random(seed)
    pairs = []
    for _ in range(trials):
        f = rnd.randrange(n)
        helpers = tuple(sorted(rnd.sample([i for i in range(n) if i != f], d)))
        pairs.append((f, helpers))
    counts = {"reconstruction": trials, "repair": trials}
    mode_info = {
        "kind": "sampled",
        "seed": seed,
        "trials": trials,
        "distinct_subsets": len(set(subsets)),
        "distinct_pairs": len(set(pairs)),
    }
    return mode_info, counts, subsets, pairs


def _check_reconstruction(dss: LinearDss, report: VerificationReport, subsets):
    """Record the first k-subset whose stacked generators lack column rank B."""
    for subset in subsets:
        stack = [row for i in subset for row in dss.node_gens[i].data]
        if mat_rank(FieldMatrix(dss.field, stack)) != dss.file_len:
            report.reconstruction_ok = False
            report.reconstruction_counterexample = subset
            return


def _check_repair(dss: LinearDss, report: VerificationReport, pairs):
    """Prove each pair by one repair on the generator rows; return the bandwidth list.

    Stops at the first pair that does not rebuild the failed node's generator
    rows and records it. Returns one ((failed, helpers), report) entry per
    pair proved.
    """
    forms = [g.data for g in dss.node_gens]
    bandwidth = []
    for failed, helpers in pairs:
        rebuilt, bw = repair(dss, failed, helpers, forms)
        if rebuilt != forms[failed]:
            report.repair_ok = False
            report.repair_counterexample = (failed, helpers)
            return bandwidth
        bandwidth.append(((failed, helpers), bw))
    return bandwidth


def verify_reconstruction(
    dss: LinearDss, mode: str = "auto", seed: int = 0, trials: int = 200
) -> VerificationReport:
    """Prove by rank that every (or a sampled set of) k-subsets reconstructs."""
    mode_info, counts, subsets, _ = _plan(dss, mode, seed, trials)
    report = VerificationReport(
        dss.label, mode_info, checks_run={"reconstruction": counts["reconstruction"]}
    )
    _check_reconstruction(dss, report, subsets)
    return report


def verify_exact_repair(
    dss: LinearDss,
    mode: str = "auto",
    seed: int = 0,
    trials: int = 200,
):
    """Prove exact repair of every (or a sampled set of) (failed, helpers) pairs.

    Returns (report, bandwidth), the list of ((failed, helpers), report)
    entries of the pairs repaired.
    """
    mode_info, counts, _, pairs = _plan(dss, mode, seed, trials)
    report = VerificationReport(dss.label, mode_info, checks_run={"repair": counts["repair"]})
    return report, _check_repair(dss, report, pairs)


def check_symmetric_repair(dss: LinearDss, bandwidth=None, mode="auto", seed=0, trials=200):
    """True iff every helper transfers the same amount in every repair."""
    if bandwidth is None:
        _, bandwidth = verify_exact_repair(dss, mode, seed, trials)
    max_dev = max((bw.max_deviation() for _, bw in bandwidth), default=0)
    return max_dev == 0, max_dev


def measure_and_compare(
    dss: LinearDss,
    predicted: OperatingPoint | None = None,
    mode: str = "auto",
    seed: int = 0,
    trials: int = 200,
) -> VerificationReport:
    """Full verification: reconstruction, exact repair, symmetry, measurement.

    One plan drives both sweeps, which fill one report. The measured point
    is in symbol units: alpha from the node content lengths, gamma from the
    largest repair total, B = file_len. Matching against the prediction is
    exact rational equality of the alpha-normalized ratios.
    """
    mode_info, counts, subsets, pairs = _plan(dss, mode, seed, trials)
    report = VerificationReport(
        dss.label,
        mode_info,
        checks_run={**counts, "total": sum(counts.values())},
        predicted=predicted,
        gamma_declared=dss.gamma_symbols,
    )
    _check_reconstruction(dss, report, subsets)
    bandwidth = _check_repair(dss, report, pairs)

    lengths = {g.rows for g in dss.node_gens}
    report.alpha_uniform = len(lengths) == 1
    totals = [bw.total for _, bw in bandwidth]
    report.gamma_constant = not totals or min(totals) == max(totals)
    report.symmetric, report.symmetry_max_deviation = check_symmetric_repair(dss, bandwidth)
    measured = OperatingPoint(
        Fraction(max(lengths)),
        Fraction(max(totals, default=dss.gamma_symbols)),
        Fraction(dss.file_len),
    )
    report.measured = measured
    if predicted is not None:
        report.match = (
            measured.gamma / measured.alpha == predicted.gamma / predicted.alpha
            and measured.file_size / measured.alpha
            == predicted.file_size / predicted.alpha
        )
    return report
