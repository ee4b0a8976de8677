"""Exhaustive or sampled proof that a concrete storage code keeps its promises.

measure_and_compare is the one call. It proves that k-subsets reconstruct
and that (failed, helpers) pairs repair exactly, measures (alpha, gamma, B)
and per-helper symmetry, and compares the measurement with the declared
gamma and with a predicted operating point. The code is linear, so both
sweeps are proofs: a k-subset rebuilds the file iff its stacked generators
have column rank B, and a linear repair rule (dss.RepairRule) is exact for
every file iff one run on the generator rows returns the failed node's
rows. That run, holding no data, measures the bandwidth.

A composite is proved from its copy table (constructions), by the walk its
decode takes. Its copies own disjoint column blocks, so a node set decodes
it iff every copy hosts its file node there or decodes its part from the
distinct part nodes it hosts there, and a repair is exact iff every group
of its plan (_CopiesRule._plan) is: a twin or file-node download by
placement, a lost file node by that decode, a part repair by the part's
own verdict on (lost, chosen). Verdicts are memoized per part for the
whole proof (_Proof), so a proof costs the table, not the node size. A
code without copies keeps one exchange tableau over its generators
(LinearDss._exchange), which its rule and both proofs walk from node set
to node set, a pivot per row swapped in, each on from where the last walk
left it; its rule is run on its generator rows, compared by segments, then
by segments trimmed: never dense. A composite's generators are rendered
from its table (constructions), so neither proof renders them. A rule that
wraps a composite's has no table, and a table takes no forms: repair is
proved first, so such a code is refused (InputError) at the rule's first
call, before any tableau is built. Repair is judged once per helper set,
for all the failed nodes outside it, keeping running bandwidth totals. A
failure is reported as a sweep in plan order would report it: the first
k-subset that does not decode, or, walking the pairs again one node a
verdict, the first pair.

One plan sweeps every subset and pair when their total count is at most
EXHAUSTIVE_LIMIT, and otherwise draws up to TRIALS distinct ones of each.
One gamma rule holds for the declared gamma and the predicted gamma/alpha:
an exhaustive sweep must equal it, a sample (which sees only some repairs)
must not exceed it. B/alpha must always match exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from itertools import combinations, groupby
from math import comb
from operator import itemgetter

from .constructions import _FILE, _CopiesRule
from .dss import BandwidthReport, CodeInvariantError, LinearDss
from .gf import _trimmed
from .tradeoff import OperatingPoint

EXHAUSTIVE_LIMIT = 10**5
TRIALS = 200


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
    # always true, as LinearDss rejects non-uniform node sizes; the JSON report keeps it
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
        passed = self.reconstruction_ok and self.repair_ok
        if self.measured is not None and self.gamma_declared is not None:
            passed = passed and self._gamma_fits(self.measured.gamma, self.gamma_declared)
        return passed and self.match is not False

    def _gamma_fits(self, measured, expected) -> bool:
        """The one gamma rule: a sample sees only some repairs, so it bounds gamma from below."""
        if self.mode["kind"] == "sampled":
            return measured <= expected
        return measured == expected

    def to_json_dict(self) -> dict:
        return {
            f.name: _json_value(getattr(self, f.name))
            for f in fields(self)
            if f.name != "gamma_declared"
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _json_value(value):
    """A report field as JSON data: a point as exact strings, tuples as lists."""
    if isinstance(value, OperatingPoint):
        return {name: str(getattr(value, name)) for name in ("alpha", "gamma", "file_size")}
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def _plan(dss: LinearDss, seed: int):
    """One exhaustive-or-sampled decision for the k-subsets and the repair pairs.

    The decision rests on the total check count, so the mode holds for both
    sweeps: all of them if it is at most EXHAUSTIVE_LIMIT, else a sample.
    Each sampled sweep draws from its own Random(seed) and skips repeats
    until it holds min(TRIALS, population) distinct subsets or pairs, so
    every sampled check is a new proof. A draw takes the smaller side: the
    nodes left out when they are fewer than the nodes kept. Returns
    (mode_info, subsets, pairs, by_helpers): the pairs in plan order
    (failed node first, or draw order) and the same pairs grouped by their
    helpers, both lazy when exhaustive.
    """
    n, k, d = dss.params.n, dss.params.k, dss.params.d
    n_subsets, n_pairs = comb(n, k), n * comb(n - 1, d)
    if n_subsets + n_pairs <= EXHAUSTIVE_LIMIT:
        subsets = combinations(range(n), k)
        pairs = (
            (f, helpers)
            for f in range(n)
            for helpers in combinations([i for i in range(n) if i != f], d)
        )
        nodes = set(range(n))
        by_helpers = (
            (f, helpers)
            for helpers in combinations(range(n), d)
            for f in sorted(nodes.difference(helpers))
        )
        return {"kind": "exhaustive"}, subsets, pairs, by_helpers

    def distinct(population, draw):
        rnd = random.Random(seed)
        drawn = {}  # insertion-ordered set: the sweep keeps the draw order
        while len(drawn) < min(TRIALS, population):
            drawn[draw(rnd)] = None
        return list(drawn)

    def choose(rnd, pool, size):
        """size members of pool, in its order, drawing those left out when fewer."""
        if 2 * size > len(pool):
            left_out = set(rnd.sample(pool, len(pool) - size))
            return tuple(i for i in pool if i not in left_out)
        return tuple(sorted(rnd.sample(pool, size)))

    def pair(rnd):
        f = rnd.randrange(n)
        return f, choose(rnd, [i for i in range(n) if i != f], d)

    subsets = distinct(n_subsets, lambda rnd: choose(rnd, range(n), k))
    pairs = distinct(n_pairs, pair)
    by_helpers = sorted(pairs, key=itemgetter(1))
    return {"kind": "sampled", "seed": seed, "trials": TRIALS}, subsets, pairs, by_helpers


def _check_reconstruction(dss: LinearDss, report: VerificationReport, subsets) -> int:
    """Prove subsets up to the first that does not decode the file; returns the count run.

    A copy hosting the positions H is met by every k-subset in at least
    t = max(0, k - (n - |H|)) of them, can be met in any t, and only gains
    by more, so every k-subset decodes iff every t-subset of H decodes
    every copy. An exhaustive plan proves that once per distinct copy key
    (part, t, the sorted nodes it hosts) and on a pass counts all C(n, k)
    subsets. Otherwise, and for a code without copies, whose tableau walks
    through them, the subsets are walked in order (_Proof.decodes): the
    first that does not decode is the counterexample, its position the
    count.
    """
    n, k, exhaustive = dss.params.n, dss.params.k, report.mode["kind"] == "exhaustive"
    proof, rule = _Proof(), dss.repair_rule
    if exhaustive and isinstance(rule, _CopiesRule):
        keys = dict.fromkeys(
            (part, max(0, k - n + len(hosts)), tuple(sorted(h for h, _ in hosts.values())))
            for part, hosts, _ in rule.copies
        )
        if all(proof.hosted(part, c) for part, t, held in keys for c in combinations(held, t)):
            return comb(n, k)

    met, run = partial(proof.decodes, dss), 0
    for run, subset in enumerate(subsets, 1):
        if not met(subset):
            report.reconstruction_ok = False
            report.reconstruction_counterexample = subset
            return run
    return run


class _Proof:
    """Verdicts on a code and its parts, each memoized for the whole proof.

    decodes(code, nodes) walks a composite's copy table and any other
    code's own tableau (LinearDss._exchange, which its rule walks too);
    repairs(code, failed, helpers) judges a composite's plan group by
    group and runs any other rule once on its generator rows (see the
    module docstring), a part's verdict memoized per (part, lost, chosen).
    A proof keeps verdicts only: no tableau.
    """

    def __init__(self):
        self.decoded, self.repaired = {}, {}

    def hosted(self, part, held) -> bool:
        """Whether a copy of part decodes from the nodes it hosts at the positions read."""
        return (_FILE,) in held or self.decodes(part, tuple(sorted({node[1] for node in held})))

    def decodes(self, code, nodes) -> bool:
        key = (code, nodes)
        if key not in self.decoded:
            rule = code.repair_rule
            if isinstance(rule, _CopiesRule):
                read = set(nodes)
                self.decoded[key] = all(
                    self.hosted(part, [node for p, (node, _) in hosts.items() if p in read])
                    for part, hosts, _ in rule.copies
                )
            else:
                self.decoded[key] = code._exchange.span(nodes)
        return self.decoded[key]

    def repairs(self, code, failed, helpers):
        """Per failed node (exact, BandwidthReport); CodeInvariantError as the rule raises it."""
        rule = code.repair_rule
        if not isinstance(rule, _CopiesRule):
            forms = [g.segments for g in code.node_gens]
            results = rule.execute(code, failed, helpers, forms)
            return [
                (rebuilt == forms[f] or _trimmed(rebuilt) == _trimmed(forms[f]), bw)
                for f, (rebuilt, bw) in zip(failed, results, strict=True)
            ]
        _, groups, counts = rule._plan(code, failed, helpers)  # a twin is exact by placement
        alpha, exact = code.alpha_symbols, [True] * len(failed)
        for (part, us, chosen), members in groups.items():
            if chosen == (_FILE,):  # the file node's product, exact by placement
                verdicts = [(True, {_FILE: part.alpha_symbols})]
            elif us == _FILE:
                verdicts = [(self.decodes(part, chosen), dict.fromkeys(chosen, part.alpha_symbols))]
            else:
                verdicts = self._part(part, us, chosen)
            for slots, cand in members:
                for slot, (good, per_helper) in zip(slots, verdicts):
                    exact[slot // alpha] &= good
                    for w, amount in per_helper.items():
                        counts[slot // alpha][cand[w][0]] += amount
        return [(good, BandwidthReport(c)) for good, c in zip(exact, counts)]

    def _part(self, part, us, chosen):
        """The part's verdict on its nodes us from chosen, (exact, per_helper) each."""
        key = (part, us, chosen)
        if key not in self.repaired:
            try:
                verdicts = [(good, bw.per_helper) for good, bw in self.repairs(part, us, chosen)]
            except CodeInvariantError:  # the part's rule refused: its nodes are not rebuilt
                verdicts = [(False, {})] * len(us)
            self.repaired[key] = verdicts
        return self.repaired[key]


def _check_repair(dss: LinearDss, report: VerificationReport, pairs, by_helpers):
    """Prove the pairs by one verdict (_Proof.repairs) per helper set.

    by_helpers holds the plan's pairs with those that share their helpers
    in a row. If one fails, the pairs are walked again in plan order, one
    a verdict, up to the first failure, the counterexample
    (CodeInvariantError if none: the rule answers differently batched).
    Returns (count run, bandwidth), bandwidth the (least total, largest
    total, largest max_deviation) of the pairs proved, or None if none was.
    """
    first, grouped = itemgetter(0), groupby(by_helpers, itemgetter(1))
    sweep, proof = ((h, tuple(map(first, g))) for h, g in grouped), _Proof()
    run, failure, bandwidth = _sweep(dss, sweep, proof)
    if failure is not None:
        run, failure, bandwidth = _sweep(dss, ((h, (f,)) for f, h in pairs), proof)
        if failure is None:
            raise CodeInvariantError(f"{dss.repair_rule.kind} repair fails only when batched")
        report.repair_ok = False
        report.repair_counterexample = failure
    return run, bandwidth


def _sweep(dss: LinearDss, groups, proof):
    """Judge the (helpers, failed nodes) groups in order up to the first pair that fails.

    Returns (count run, the failing pair or None, bandwidth as
    _check_repair returns it). A verdict that raises (a rule decoding from
    helpers that do not determine the file) fails its first pair; a report
    the nodes of a verdict share is read once.
    """
    run, bandwidth, last = 0, None, None
    for helpers, failed in groups:
        try:
            results = proof.repairs(dss, failed, helpers)
        except CodeInvariantError:  # the rule decoded from helpers that do not determine the file
            return run + 1, (failed[0], helpers), bandwidth
        for f, (exact, bw) in zip(failed, results, strict=True):
            run += 1
            if not exact:
                return run, (f, helpers), bandwidth
            if bw is last:
                continue
            last, total, deviation = bw, bw.total, bw.max_deviation()
            low, high, most = bandwidth or (total, total, deviation)
            if bandwidth is None or total < low or total > high or deviation > most:
                bandwidth = min(low, total), max(high, total), max(most, deviation)
    return run, None, bandwidth


def measure_and_compare(
    dss: LinearDss, predicted: OperatingPoint | None = None, seed: int = 0
) -> VerificationReport:
    """The verifier's one call: prove, measure and compare one code.

    One plan drives both sweeps, which fill one report; checks_run counts
    the checks that ran, a counterexample last. The measured point is in
    symbol units: alpha = alpha_symbols (the node size), gamma from the
    largest repair total, B = file_len. It matches the prediction when the
    alpha-normalized ratios agree: B/alpha exactly, gamma/alpha by the one
    gamma rule.
    """
    mode_info, subsets, pairs, by_helpers = _plan(dss, seed)
    report = VerificationReport(
        dss.label, mode_info, predicted=predicted, gamma_declared=dss.gamma_symbols
    )
    rep, bandwidth = _check_repair(dss, report, pairs, by_helpers)
    recon = _check_reconstruction(dss, report, subsets)
    report.checks_run = {"reconstruction": recon, "repair": rep, "total": recon + rep}

    low, high, deviation = bandwidth or (dss.gamma_symbols, dss.gamma_symbols, 0)
    report.gamma_constant = low == high
    report.symmetry_max_deviation = deviation
    report.symmetric = deviation == 0
    measured = OperatingPoint(
        Fraction(dss.alpha_symbols), Fraction(high), Fraction(dss.file_len)
    )
    report.measured = measured
    if predicted is not None:
        report.match = report._gamma_fits(
            measured.gamma / measured.alpha, predicted.gamma / predicted.alpha
        ) and measured.file_size / measured.alpha == predicted.file_size / predicted.alpha
    return report
