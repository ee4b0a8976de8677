"""Exhaustive or sampled proof that a concrete storage code keeps its promises.

measure_and_compare is the one call. It proves that k-subsets reconstruct
and that (failed, helpers) pairs repair exactly, measures (alpha, gamma, B)
and per-helper symmetry, and compares the measurement with the declared
gamma and with a predicted operating point. The code is linear, so both
sweeps are proofs: a k-subset rebuilds the file iff its stacked generators
have column rank B, and a linear repair rule (dss.RepairRule) is exact for
every file iff one run on the generator rows returns the failed node's
rows, compared by segments, then by segments trimmed: never dense. That
run, holding no data, measures the bandwidth.

Reconstruction is proved on column blocks, from the generators alone. The
stacked generators of all n nodes tile into merged column spans, each row
zero outside its block. If N_b is the set of nodes touching block b and
t_b = max(0, k - (n - |N_b|)), every k-subset has rank B iff every
t_b-subset of N_b has full rank on b, and blocks of equal width, t_b and
sorted node contents share one verdict. Each block is eliminated once, as
an exchange tableau (gf._Tableau): a basis R of its rows, and every other
row's coordinates over R. A node set S is proved by exchange (span): each
row of S not in R enters R by one pivot, in place of a row not in S where
its coordinate is nonzero, and a row with no such place already lies in
the span of S's rows in R. S has full rank iff the block's rows have rank
width and R is then all S's. The walk is exact, as a rank of G_S would be,
and R stays a basis of the block, so the next set walks on from it: a set
next to the last costs the rows it swaps in, as an MDS repair does. A
failure is reported as the first deficient k-subset in combinations
order, found by walking the subsets against the failing blocks only.

Repair is proved by one rule call per helper set, for all the failed
nodes outside it, so a rule that keeps its last helper set
(dss.MdsReencodeRule, which walks one exchange tableau per code from
helper set to helper set, a pivot per row swapped in) moves once per
helper set, and the sweep keeps running bandwidth totals, not a report
per pair. If a pair fails, the pairs are walked again in plan order, one
node a call, up to the first failure, so the counterexample, the count
and the measurement over the pairs before it are those of a plan order
sweep.

One plan sweeps every subset and pair when their total count is at most
EXHAUSTIVE_LIMIT, and otherwise draws up to TRIALS distinct ones of each;
a drawn k-subset is checked against every block.
One gamma rule holds for the declared gamma and the predicted gamma/alpha:
an exhaustive sweep must equal it, a sample (which sees only some repairs)
must not exceed it. B/alpha must always match exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations, groupby
from math import comb
from operator import itemgetter

from .dss import CodeInvariantError, LinearDss
from .gf import _Tableau, _tiles, _trimmed
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
    """Prove subsets by rank on column blocks up to the first that lacks rank B.

    Returns the count run. The stacked generators tile into merged column
    spans (_column_blocks), each row zero outside its block, so a subset's
    rank is the sum of its ranks on the blocks. Block b is touched by the
    nodes N_b; every k-subset holds at least t_b = max(0, k - (n - |N_b|))
    of them, can hold any t_b of them, and only gains rows with more. So
    every k-subset has rank B iff every t_b-subset of N_b has full rank on
    b. Each block is eliminated once, as a gf._Tableau, whose span walks
    its basis to a node set's rows by a pivot per row swapped in (the
    exchange in the module docstring). An exhaustive plan proves that once
    per distinct block (its width, t_b and sorted node contents: the check
    is symmetric in node labels) and on a pass counts all C(n, k) subsets.
    A subset is deficient iff its nodes lack full rank on some block, so
    on a failure the subsets are walked in order against the
    failing blocks, and a sampled plan walks its drawn subsets against
    every block, verdicts memoized per block and nodes met: the first
    deficient subset is the counterexample, its 1-based position the count.
    """
    n, k, field = dss.params.n, dss.params.k, dss.field
    blocks = _column_blocks(dss)
    if report.mode["kind"] != "exhaustive":
        blocks = [(nodes, _Tableau(field, width, nodes)) for width, nodes in blocks]
    else:  # only the failing blocks are kept, each with its tableau
        verdicts = {}
        failing = []
        for width, nodes in blocks:
            t = max(0, k - n + len(nodes))
            key = (width, t, tuple(sorted(map(tuple, nodes.values()))))
            tableau = None
            if key not in verdicts:
                tableau = _Tableau(field, width, nodes)
                verdicts[key] = all(map(tableau.span, combinations(nodes, t)))
            if not verdicts[key]:
                failing.append((nodes, tableau or _Tableau(field, width, nodes)))
        if not failing:
            return comb(n, k)
        blocks = failing
    memo = {}
    run = 0
    for run, subset in enumerate(subsets, 1):
        members = set(subset)
        for b, (nodes, tableau) in enumerate(blocks):
            met = tuple(filter(members.__contains__, nodes))
            if (b, met) not in memo:
                memo[b, met] = tableau.span(met)
            if not memo[b, met]:
                report.reconstruction_ok = False
                report.reconstruction_counterexample = subset
                return run
    return run


def _column_blocks(dss: LinearDss):
    """Yield (width, {node: its rows there}) for each column block of the stacked generators.

    The generators of all n nodes stack in node order and tile into merged
    column spans (gf._tiles); each block keeps its nodes' nonzero rows in
    their order, as segments moved to the block's first column, their
    entries tuples so that blocks can be compared by value.
    """
    alpha = dss.alpha_symbols
    stack = [seg for g in dss.node_gens for seg in g.segments]
    for lo, hi, rows in _tiles(stack, dss.file_len):
        nodes = {}
        for r in sorted(rows):
            start, entries = stack[r]
            if entries:
                nodes.setdefault(r // alpha, []).append((start - lo, tuple(entries)))
        yield hi - lo, nodes


def _check_repair(dss: LinearDss, report: VerificationReport, pairs, by_helpers):
    """Prove the pairs by one repair on the generator rows per helper set.

    by_helpers holds the plan's pairs with those that share their helpers
    in a row, each run of them one rule call. If one fails, the pairs are
    walked again in plan order, one a call, up to the first failure, which
    is recorded as the counterexample (CodeInvariantError if none: the rule
    answers differently batched). Returns (count run, bandwidth), bandwidth
    the (least total, largest total, largest max_deviation) of the pairs
    proved, or None if none was: as a plan order sweep would.
    """
    first, grouped = itemgetter(0), groupby(by_helpers, itemgetter(1))
    run, failure, bandwidth = _sweep(dss, ((h, tuple(map(first, g))) for h, g in grouped))
    if failure is not None:
        run, failure, bandwidth = _sweep(dss, ((h, (f,)) for f, h in pairs))
        if failure is None:
            raise CodeInvariantError(f"{dss.repair_rule.kind} repair fails only when batched")
        report.repair_ok = False
        report.repair_counterexample = failure
    return run, bandwidth


def _sweep(dss: LinearDss, groups):
    """Repair the (helpers, failed nodes) groups in order up to the first pair that fails.

    Returns (count run, the failing pair or None, bandwidth as
    _check_repair returns it). The forms are the generators' own segments,
    alpha per node as LinearDss holds them, and each group is one rule
    call, made directly: the plan yields only d sorted helpers in range and
    failed nodes outside them. A call that raises (as a composite's rule
    does for generators its table did not place) fails its first pair. A
    rebuilt node is compared by its generator's segments, then, as
    generators may keep zeros at their ends, by both sides' segments
    trimmed (gf._trimmed), never as dense rows; a report the nodes of a
    call share is read once.
    """
    forms = [g.segments for g in dss.node_gens]
    execute = dss.repair_rule.execute
    run, bandwidth, last = 0, None, None
    for helpers, failed in groups:
        try:
            results = execute(dss, failed, helpers, forms)
        except CodeInvariantError:  # the rule decoded from helpers that do not determine the file
            return run + 1, (failed[0], helpers), bandwidth
        for f, (rebuilt, bw) in zip(failed, results, strict=True):
            run += 1
            if rebuilt != forms[f] and _trimmed(rebuilt) != _trimmed(forms[f]):
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
    recon = _check_reconstruction(dss, report, subsets)
    rep, bandwidth = _check_repair(dss, report, pairs, by_helpers)
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
