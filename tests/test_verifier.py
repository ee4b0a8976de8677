import inspect
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import comb
from pathlib import Path

import regencode.gf as gf_module
import regencode.verifier as verifier
from regencode.constructions import (
    blowup_full,
    blowup_simple,
    concat,
    copy_blowup,
    filenode_blowup,
    iterate,
)
from regencode.cli import main
import regencode.dss as dss_module
from regencode.dss import (
    CodeInvariantError,
    LinearDss,
    MdsReencodeRule,
    RepairRule,
    rs_base,
)
from regencode.gf import GF2, GF16, GF256, FieldMatrix, _matrix, mat_rank
from regencode.tradeoff import OperatingPoint, SystemParams, perf_p1
from regencode.verifier import measure_and_compare

GOLDEN = Path(__file__).parent / "golden"


def corrupt_generator(dss, node):
    gens = [FieldMatrix(dss.field, g.data) for g in dss.node_gens]
    gens[node] = FieldMatrix(dss.field, [[0] * dss.file_len for _ in range(gens[node].rows)])
    return LinearDss(
        dss.params,
        dss.field,
        dss.file_len,
        gens,
        dss.repair_rule,
        dss.label + "/corrupted",
        dss.gamma_symbols,
    )


class ZeroedTransferRule(RepairRule):
    """Fault model: the first helper's transfer is dropped on the wire."""

    kind = "zeroed_transfer"

    def __init__(self, inner):
        self.inner = inner

    def execute(self, dss, failed, helpers, contents):
        tampered = list(contents)
        tampered[helpers[0]] = [_zeroed(s) for s in contents[helpers[0]]]
        return self.inner.execute(dss, failed, helpers, tampered)


def _zeroed(symbol):
    """A symbol with every entry zeroed: a segment form, a dense row or an element."""
    if isinstance(symbol, tuple):
        start, entries = symbol
        return start, [0] * len(entries)
    return [0] * len(symbol) if isinstance(symbol, list) else 0


def test_verify_reconstruction_blowup_full():
    report = measure_and_compare(blowup_full(rs_base(3, 2, GF2)))
    assert report.reconstruction_ok
    assert report.checks_run["reconstruction"] == 4


def test_verify_reconstruction_concat():
    report = measure_and_compare(concat([rs_base(3, 2, GF2) for _ in range(3)]))
    assert report.reconstruction_ok
    assert report.checks_run["reconstruction"] == 9


def test_verify_reconstruction_corrupted_generator():
    cases = [
        (rs_base(3, 2, GF256), (0, 1)),
        (blowup_full(rs_base(3, 2, GF2)), (0, 1, 2)),  # a composite stack
    ]
    for dss, counterexample in cases:
        report = measure_and_compare(corrupt_generator(dss, 0))
        assert not report.reconstruction_ok and not report.ok
        assert report.reconstruction_counterexample == counterexample
        # the sweep stopped at its first subset, the counterexample
        assert report.checks_run["reconstruction"] == 1


def _eliminations(monkeypatch):
    """The (rows, columns) of each elimination the reconstruction proof runs, as a live list.

    Its tableaux (gf._Tableau) eliminate in gf; the repair proof's rule
    builds one too, which is not counted here.
    """
    calls = []
    eliminate, check = gf_module._eliminate, verifier._check_reconstruction

    def spy(field, work, cols):
        calls.append((len(work), cols))
        return eliminate(field, work, cols)

    def proof(*args):
        with monkeypatch.context() as m:
            m.setattr(gf_module, "_eliminate", spy)
            return check(*args)

    monkeypatch.setattr(verifier, "_check_reconstruction", proof)
    return calls


def test_concat_reconstruction_is_proved_once_per_distinct_block(monkeypatch):
    # the three parts' column blocks are one system: its 20 3-subsets of 6
    # nodes prove all 816 15-subsets, which the stacked sweep ranked one by
    # one. The proof eliminates that block once as its reference, then at
    # most one minor per 3-subset, none for the subset that covers the
    # reference rows
    calls = _eliminations(monkeypatch)
    report = measure_and_compare(concat([rs_base(6, 3)] * 3))
    assert report.ok
    assert report.checks_run == {"reconstruction": 816, "repair": 2448, "total": 3264}
    assert 1 < len(calls) <= 20


def _stacked_sweep(dss, report, subsets):
    """The stacked-rank sweep the block proof replaced, kept as its oracle.

    A subset rebuilds the file iff its stacked generators have column rank
    B; the first subset that does not is the counterexample.
    """
    run = 0
    for run, subset in enumerate(subsets, 1):
        stack = [seg for i in subset for seg in dss.node_gens[i].segments]
        if mat_rank(FieldMatrix.from_segments(dss.field, dss.file_len, stack)) != dss.file_len:
            report.reconstruction_ok = False
            report.reconstruction_counterexample = subset
            break
    return run


def _with_one_fault(dss, rnd):
    """dss with one seeded fault in its generators.

    The fault zeroes a row, zeroes a node, or overwrites a row with a
    scaled copy of another row whose columns it shares, so of a row in
    the same column block.
    """
    rows = [g.data for g in dss.node_gens]  # new lists of rows: rows are replaced, never mutated
    n, alpha, file_len = dss.params.n, dss.alpha_symbols, dss.file_len
    fault = rnd.choice(["row", "node", "duplicate", "duplicate"])
    if fault == "row":
        rows[rnd.randrange(n)][rnd.randrange(alpha)] = [0] * file_len
    elif fault == "node":
        rows[rnd.randrange(n)] = [[0] * file_len for _ in range(alpha)]
    else:
        i, a = rnd.choice([(i, a) for i in range(n) for a in range(alpha) if any(rows[i][a])])
        sharing = [
            (j, b)
            for j in range(n)
            for b in range(alpha)
            if (j, b) != (i, a) and any(x and y for x, y in zip(rows[i][a], rows[j][b]))
        ]
        j, b = rnd.choice(sharing)
        scale = rnd.randrange(1, dss.field.order)
        rows[j][b] = [dss.field.mul(scale, x) for x in rows[i][a]]
    gens = [FieldMatrix(dss.field, node) for node in rows]
    return LinearDss(
        dss.params, dss.field, file_len, gens, dss.repair_rule, f"{dss.label}/{fault}",
        dss.gamma_symbols,
    )


def test_block_proof_agrees_with_the_stacked_sweep(monkeypatch):
    # seeded faults in small compositions and in wide MDS codes over GF(2^8),
    # GF(2^4) and GF(2), each verified exhaustively and sampled, by the
    # block proof and by the stacked-rank sweep: the reports must be equal,
    # counterexample and checks_run included
    recipes = [
        concat([rs_base(3, 2)] * 3),
        filenode_blowup(rs_base(3, 2)),
        copy_blowup(rs_base(3, 2), 1),
        blowup_simple(rs_base(4, 3)),
        blowup_full(rs_base(3, 2)),
        blowup_full(blowup_simple(rs_base(3, 2))),
        iterate(rs_base(2, 1), 2),
        rs_base(8, 5),
        rs_base(16, 12),
        rs_base(9, 4, GF16),
        blowup_full(rs_base(3, 2, GF2)),
    ]
    rnd = random.Random(16)
    broken = later = kept = 0
    exhaustive = verifier.EXHAUSTIVE_LIMIT
    monkeypatch.setattr(verifier, "TRIALS", 12)
    for code in recipes:
        for _ in range(6):
            faulty = _with_one_fault(code, rnd)
            for limit in (exhaustive, 0):
                monkeypatch.setattr(verifier, "EXHAUSTIVE_LIMIT", limit)
                proof = measure_and_compare(faulty, seed=limit)
                with monkeypatch.context() as m:
                    m.setattr(verifier, "_check_reconstruction", _stacked_sweep)
                    oracle = measure_and_compare(faulty, seed=limit)
                assert proof.to_json() == oracle.to_json(), faulty.label
                if limit:
                    kept += proof.reconstruction_ok
                    broken += not proof.reconstruction_ok
                    later += proof.checks_run["reconstruction"] > 1 and not proof.reconstruction_ok
    # most faults break reconstruction, many first at a later subset; some
    # duplicated rows leave every k-subset at rank B
    assert broken >= 45 and later >= 30 and kept >= 8, (broken, later, kept)


def test_reconstruction_eliminates_one_reference_then_minors(monkeypatch):
    # rs_base(n, k) is one k-wide block of n one-row nodes, and every
    # k-subset must have full rank on it. The reference is the block laid
    # out transposed, k x n, eliminated once; its reference rows are nodes
    # 0..k-1, so the subset (0, ..., k-1) needs nothing and one that swaps j
    # nodes in solves a j x j minor, j <= min(k, n - k): C(k, j) * C(n - k, j)
    # of them, where each subset took a k x k rank
    calls = _eliminations(monkeypatch)
    for n, k in [(16, 12), (14, 7)]:
        calls.clear()
        report = measure_and_compare(rs_base(n, k))
        assert report.ok and report.checks_run["reconstruction"] == comb(n, k)
        reference, *minors = calls
        assert reference == (k, n)
        assert all(rows == cols <= min(k, n - k) for rows, cols in minors)
        widths = {j: comb(k, j) * comb(n - k, j) for j in range(1, min(k, n - k) + 1)}
        assert Counter(cols for _, cols in minors) == widths
        assert len(minors) == comb(n, k) - 1


def test_a_block_of_rank_below_its_width_fails_every_subset(monkeypatch):
    # every node stores a multiple of node 0's row: the one 2-wide block has
    # rank 1, so the reference has too few rows, no subset has full rank,
    # and no minor is eliminated
    base = rs_base(4, 2)
    row = base.node_gens[0].data[0]
    gens = [FieldMatrix(GF256, [[GF256.mul(c, x) for x in row]]) for c in (1, 2, 3, 4)]
    code = LinearDss(base.params, GF256, 2, gens, base.repair_rule, "rank 1", 2)
    calls = _eliminations(monkeypatch)
    monkeypatch.setattr(verifier, "TRIALS", 4)
    for limit in (verifier.EXHAUSTIVE_LIMIT, 0):
        monkeypatch.setattr(verifier, "EXHAUSTIVE_LIMIT", limit)
        calls.clear()
        report = measure_and_compare(code, seed=limit)
        assert calls == [(2, 4)]
        # the first subset run, in combinations or draw order, is the counterexample
        assert report.checks_run["reconstruction"] == 1
        assert report.reconstruction_counterexample == ((0, 1) if limit else (1, 3))
        with monkeypatch.context() as m:
            m.setattr(verifier, "_check_reconstruction", _stacked_sweep)
            assert measure_and_compare(code, seed=limit).to_json() == report.to_json()


def test_subsets_holding_more_rows_than_the_block_is_wide(monkeypatch):
    # each block of filenode_blowup(rs_base(3, 2)) is 2 wide and touched by
    # 4 nodes, the file node with 2 rows: a 2-subset that holds it holds 3
    # rows, so its minor has more rows than columns
    code = filenode_blowup(rs_base(3, 2))
    blocks = list(verifier._column_blocks(code))
    assert {width for width, _ in blocks} == {2}
    assert all(max(map(len, nodes.values())) == 2 for _, nodes in blocks)
    calls = _eliminations(monkeypatch)
    report = measure_and_compare(code)
    assert report.ok and report.checks_run["reconstruction"] == 6
    assert any(rows > cols for rows, cols in calls[1:])


def _f_major_sweep(dss, report, pairs, by_helpers):
    """The plan-order repair sweep the helper-grouped one replaced, kept as its oracle.

    Each pair, failed node first, runs the rule once on the generators'
    segments, up to the first that fails; the bandwidth is folded from the
    reports of the pairs proved.
    """
    forms = [g.segments for g in dss.node_gens]
    bandwidth = []
    for failed, helpers in pairs:
        try:
            rebuilt, bw = dss.repair_rule.execute(dss, failed, helpers, forms)
        except CodeInvariantError:
            rebuilt = None
        if rebuilt != forms[failed] and (
            rebuilt is None
            or _matrix(dss.field, dss.file_len, rebuilt).data != dss.node_gens[failed].data
        ):
            report.repair_ok = False
            report.repair_counterexample = (failed, helpers)
            return len(bandwidth) + 1, _folded(bandwidth)
        bandwidth.append(bw)
    return len(bandwidth), _folded(bandwidth)


def _folded(bandwidth):
    if not bandwidth:
        return None
    totals = [bw.total for bw in bandwidth]
    return min(totals), max(totals), max(bw.max_deviation() for bw in bandwidth)


def _with_rule(dss, rule):
    return LinearDss(
        dss.params, dss.field, dss.file_len, dss.node_gens, rule,
        f"{dss.label}/{rule.kind}", dss.gamma_symbols,
    )


def test_helper_grouped_repair_agrees_with_the_plan_order_sweep(monkeypatch):
    # seeded faults, each verified exhaustively and sampled, by the
    # helper-grouped sweep and by the plan-order one: the reports must be
    # equal, counterexample, checks_run, measured point and symmetry included
    recipes = [
        rs_base(5, 3),
        rs_base(6, 2),
        concat([rs_base(3, 2)] * 3),
        blowup_simple(rs_base(4, 3)),
        filenode_blowup(rs_base(3, 2)),
        copy_blowup(rs_base(3, 2), 1),
        blowup_full(rs_base(3, 2)),
    ]
    rnd = random.Random(18)
    faulty = []
    for code in recipes:
        faulty += [_with_one_fault(code, rnd) for _ in range(4)]
        faulty.append(_with_rule(code, ZeroedTransferRule(code.repair_rule)))
    # helper order meets (2, (0, 1, 4)) first, plan order (0, (1, 2, 4))
    node_4 = corrupt_generator(rs_base(5, 3), 4)
    faulty.append(node_4)
    # a clean code, then one sharing its rule object with node 0 zeroed
    clean = rs_base(4, 2)
    faulty += [clean, corrupt_generator(clean, 0)]

    sweeps = []
    sweep = verifier._sweep
    monkeypatch.setattr(verifier, "_sweep", lambda *a: sweeps.append(sweep(*a)) or sweeps[-1])
    monkeypatch.setattr(verifier, "TRIALS", 12)
    exhaustive = verifier.EXHAUSTIVE_LIMIT
    failed = later = reordered = 0
    for code in faulty:
        for limit in (exhaustive, 0):
            monkeypatch.setattr(verifier, "EXHAUSTIVE_LIMIT", limit)
            sweeps.clear()
            proof = measure_and_compare(code, seed=limit)
            with monkeypatch.context() as m:
                m.setattr(verifier, "_check_repair", _f_major_sweep)
                oracle = measure_and_compare(code, seed=limit)
            assert proof.to_json() == oracle.to_json(), (code.label, limit)
            if not proof.repair_ok:
                assert len(sweeps) == 2  # the helper-grouped sweep, then plan order
                failed += 1
                later += proof.checks_run["repair"] > 1
                reordered += sweeps[0][1] != sweeps[1][1]
                if code is node_4 and limit:
                    assert sweeps[0][1] == (2, (0, 1, 4))
                    assert proof.repair_counterexample == (0, (1, 2, 4))
    assert measure_and_compare(clean).ok
    assert not measure_and_compare(faulty[-1]).repair_ok
    assert failed >= 60 and later >= 20 and reordered >= 40, (failed, later, reordered)


def test_repair_proof_eliminates_each_helper_system_once(monkeypatch):
    # the C(n, k) helper sets each serve the n - k nodes outside them, and
    # run in a row in combinations order. The rule builds its code's
    # tableau once, on nodes 0..k-1, the first helper set, and solves no
    # system: each later helper set pivots in the nodes it holds and the
    # one before it did not, 1.24 a set for rs_base(16, 12)
    builds, pivots = [], []
    tableau, pivot = dss_module._Tableau, gf_module._Tableau.pivot
    monkeypatch.setattr(dss_module, "_Tableau", lambda *a: builds.append(1) or tableau(*a))
    monkeypatch.setattr(gf_module._Tableau, "pivot", lambda *a: pivots.append(1) or pivot(*a))
    monkeypatch.setattr(dss_module, "mat_solve", None)
    for n, k, walked in [(8, 5, 72), (16, 12, 2256)]:
        builds.clear()
        pivots.clear()
        report = measure_and_compare(rs_base(n, k))
        assert report.ok and report.checks_run["repair"] == comb(n, k) * (n - k)
        assert len(builds) == 1
        swapped, last = 0, set(range(k))
        for helpers in combinations(range(n), k):
            swapped, last = swapped + len(set(helpers) - last), set(helpers)
        assert len(pivots) == swapped == walked


def test_repair_proof_keeps_running_bandwidth_totals():
    # no bandwidth report is kept per pair: 660 pairs of rs_base(12, 9)
    dss = rs_base(12, 9)
    tracemalloc.start()
    try:
        report = measure_and_compare(dss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.checks_run["repair"] == 660
    assert peak < 64 * 2**10, peak


def test_repair_through_a_corrupted_generator_is_a_counterexample():
    # node 1's rule decodes from (0, 2), which no longer determine the file
    report = measure_and_compare(corrupt_generator(rs_base(3, 2, GF256), 0))
    assert not report.repair_ok and not report.ok
    assert report.repair_counterexample == (1, (0, 2))
    # node 0 rebuilt from (1, 2) is the zeroed node: that pair ran and passed
    assert report.checks_run == {"reconstruction": 1, "repair": 2, "total": 3}
    assert json.loads(report.to_json())["repair_counterexample"] == [1, [0, 2]]


def test_verify_exact_repair_blowup_full():
    report = measure_and_compare(blowup_full(rs_base(3, 2, GF2)))
    assert report.repair_ok
    assert report.checks_run["repair"] == 4
    assert report.gamma_constant and report.measured.gamma == 36


def test_verify_exact_repair_rs52():
    report = measure_and_compare(rs_base(5, 2, GF256))
    assert report.repair_ok
    assert report.checks_run["repair"] == 30
    assert report.gamma_constant and report.measured.gamma == 2


def test_verify_exact_repair_corrupted_rule():
    for base, seeds in [(rs_base(3, 2, GF256), [0]), (rs_base(3, 2, GF2), range(64))]:
        bad = LinearDss(
            base.params,
            base.field,
            base.file_len,
            base.node_gens,
            ZeroedTransferRule(MdsReencodeRule()),
            base.label + "/tampered",
            base.gamma_symbols,
        )
        for seed in seeds:  # over GF(2), random probe messages missed it at some seeds
            report = measure_and_compare(bad, seed=seed)
            assert not report.repair_ok, seed
            assert report.repair_counterexample is not None


def test_repair_proofs_on_the_nested_code_cost_its_segments():
    # the proofs run on the generators' segments: dense forms of the nested
    # code are 8,640 rows of 5,760 entries, about 400 MB
    dss = iterate(rs_base(3, 2), 2)
    tracemalloc.start()
    try:
        report = measure_and_compare(dss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mode == {"kind": "exhaustive"}
    assert report.ok and report.symmetric
    assert peak < 64 * 2**20, peak


def _first_row_flipped(dss):
    """The code with 1 XORed into the nonzero entries of node 0's first generator segment."""
    gens = list(dss.node_gens)
    (start, entries), *rest = gens[0].segments
    first = (start, [e ^ 1 if e else 0 for e in entries])
    gens[0] = _matrix(dss.field, dss.file_len, [first] + rest)
    return LinearDss(
        dss.params, dss.field, dss.file_len, gens, dss.repair_rule,
        dss.label + "/flipped", dss.gamma_symbols,
    )


def test_a_failing_repair_proof_of_the_nested_code_costs_its_segments():
    # a rebuilt node that differs from its generator is compared on trimmed
    # segments: rendering both sides dense peaked at about 152 MB traced
    dss = _first_row_flipped(iterate(rs_base(3, 2), 2))
    tracemalloc.start()
    try:
        report = measure_and_compare(dss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mode == {"kind": "exhaustive"}
    assert report.reconstruction_counterexample == (0, 1, 3, 4)
    assert report.repair_counterexample == (0, (1, 2, 3, 4))
    assert report.checks_run == {"reconstruction": 3, "repair": 1, "total": 4}
    assert peak < 5 * 2**20, peak


def test_generators_keeping_zeros_at_their_segment_ends_verify():
    # rebuilt forms are trimmed segments; a generator may keep zeros at its
    # segments' ends and still be rebuilt exactly
    base = rs_base(3, 2, GF256)
    padded = [
        FieldMatrix.from_segments(GF256, 2, [(0, row) for row in g.data]) for g in base.node_gens
    ]
    assert padded[0].segments != base.node_gens[0].segments  # (0, [1, 0]), not (0, [1])
    code = LinearDss(
        base.params,
        base.field,
        base.file_len,
        padded,
        base.repair_rule,
        base.label + "/padded",
        base.gamma_symbols,
    )
    report = measure_and_compare(code)
    assert report.ok and report.checks_run["repair"] == 3


def test_check_symmetric_repair():
    def symmetry(dss):
        report = measure_and_compare(dss)
        return report.symmetric, report.symmetry_max_deviation

    symmetric, dev = symmetry(blowup_full(rs_base(3, 2, GF2)))
    assert symmetric and dev == 0
    # this instance of the simple blowup happens to be symmetric too
    symmetric, dev = symmetry(blowup_simple(rs_base(3, 2, GF2)))
    assert symmetric and dev == 0
    # concatenation is not: helpers outside the owning part transfer 0
    symmetric, dev = symmetry(concat([rs_base(3, 2, GF2)] * 2))
    assert not symmetric and dev == 1
    # the file-node blowup of a d = k base also equalizes per-helper totals
    # (every helper serves in each file-node rebuild when d = k)
    symmetric, dev = symmetry(filenode_blowup(rs_base(3, 2, GF2)))
    assert symmetric and dev == 0


def test_measure_and_compare_examples():
    cases = [
        (blowup_full(rs_base(3, 2, GF2)), (18, 36, 48)),
        (blowup_simple(rs_base(3, 2, GF2)), (3, 6, 8)),
        (filenode_blowup(rs_base(3, 2, GF2)), (30, 36, 48)),
    ]
    for dss, (a, g, b) in cases:
        report = measure_and_compare(dss, OperatingPoint(F(a), F(g), F(b)))
        assert report.ok and report.match, dss.label
        assert (report.measured.alpha, report.measured.gamma) == (a, g)
        assert report.measured.file_size == b


def test_measured_ratio_matches_p1_prediction():
    report = measure_and_compare(blowup_full(rs_base(3, 2, GF2)))
    ratio = report.measured.file_size / report.measured.alpha
    assert ratio == perf_p1(SystemParams(4, 3, 3), 1, 2).file_size


def test_match_is_scale_invariant():
    dss = blowup_full(rs_base(3, 2, GF2))
    report = measure_and_compare(dss, OperatingPoint(1, 2, F(8, 3)))
    assert report.match  # (18,36,48) normalized


def test_checks_run_exhaustive_counts():
    dss = blowup_simple(rs_base(3, 2, GF2))
    report = measure_and_compare(dss)
    n, k, d = dss.params.n, dss.params.k, dss.params.d
    assert report.checks_run["reconstruction"] == comb(n, k)
    assert report.checks_run["repair"] == n * comb(n - 1, d)
    assert report.checks_run["total"] == comb(n, k) + n * comb(n - 1, d)


def test_sampled_mode(monkeypatch):
    monkeypatch.setattr(verifier, "TRIALS", 25)
    report = measure_and_compare(rs_base(50, 5, GF256), seed=42)
    assert report.reconstruction_ok and report.repair_ok
    assert report.mode == {"kind": "sampled", "seed": 42, "trials": 25}
    assert report.checks_run == {"reconstruction": 25, "repair": 25, "total": 50}
    assert report.gamma_constant and report.measured.gamma == 5


def test_one_plan_decides_the_mode_for_both_sweeps(monkeypatch):
    monkeypatch.setattr(verifier, "EXHAUSTIVE_LIMIT", 20)
    monkeypatch.setattr(verifier, "TRIALS", 7)
    report = measure_and_compare(rs_base(6, 2, GF256))  # 15 subsets, 60 pairs
    assert report.ok
    assert report.mode["kind"] == "sampled"
    assert report.checks_run == {"reconstruction": 7, "repair": 7, "total": 14}
    # draws are distinct, so 200 trials stop at the 15 subsets and 60 pairs there are
    monkeypatch.setattr(verifier, "TRIALS", 200)
    report = measure_and_compare(rs_base(6, 2, GF256))
    assert report.ok
    assert report.checks_run == {"reconstruction": 15, "repair": 60, "total": 75}


def test_ok_requires_the_declared_gamma():
    base = rs_base(4, 2, GF256)
    wrong = LinearDss(
        base.params, base.field, base.file_len, base.node_gens,
        base.repair_rule, base.label, gamma_symbols=1,
    )
    report = measure_and_compare(wrong)
    assert report.measured.gamma == 2 and not report.ok


# seed at which the one sampled repair of concat(base(4,3),base(3,2)) falls in
# the (3,2) part, whose repairs move 2 symbols against the declared gamma 3
SEED_IN_SMALL_PART = 0


def test_one_gamma_rule_for_ok_and_match(monkeypatch):
    monkeypatch.setattr(verifier, "EXHAUSTIVE_LIMIT", 0)
    monkeypatch.setattr(verifier, "TRIALS", 1)
    mixed = concat([rs_base(4, 3, GF256), rs_base(3, 2, GF256)])
    declared = OperatingPoint(mixed.alpha_symbols, mixed.gamma_symbols, mixed.file_len)
    report = measure_and_compare(mixed, declared, seed=SEED_IN_SMALL_PART)
    assert report.mode["kind"] == "sampled"
    assert report.repair_counterexample is None and report.checks_run["repair"] == 1
    assert report.measured.gamma == 2 < mixed.gamma_symbols == 3
    # a sample bounds gamma from below, for the declared gamma and the prediction alike
    assert report.match and report.ok
    # an exhaustive sweep holds both to equality
    over = OperatingPoint(mixed.alpha_symbols, mixed.gamma_symbols + 1, mixed.file_len)
    monkeypatch.setattr(verifier, "EXHAUSTIVE_LIMIT", 10**5)
    report = measure_and_compare(mixed, over)
    assert report.measured.gamma == 3 and not report.match and not report.ok


def test_sampled_construct_of_an_unequal_concat_exits_0(monkeypatch, capsys):
    monkeypatch.setattr(verifier, "EXHAUSTIVE_LIMIT", 0)
    monkeypatch.setattr(verifier, "TRIALS", 1)
    recipe = "concat(base(4,3),base(3,2))"
    assert main(["construct", recipe, "--seed", str(SEED_IN_SMALL_PART)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["measured"]["gamma"] == "2" and data["match"] is True


def test_sampled_mode_deterministic(monkeypatch):
    monkeypatch.setattr(verifier, "TRIALS", 10)
    dss = rs_base(50, 5, GF256)
    a = measure_and_compare(dss, seed=7)
    b = measure_and_compare(dss, seed=7)
    assert a.to_json() == b.to_json()


def test_sampled_draws_take_the_smaller_side(monkeypatch):
    drawn = []

    class Counting(random.Random):
        def sample(self, population, k, **kwargs):
            drawn.append(k)
            return super().sample(population, k, **kwargs)

    monkeypatch.setattr(verifier.random, "Random", Counting)
    monkeypatch.setattr(verifier, "TRIALS", 20)
    report = measure_and_compare(rs_base(40, 36, GF256), seed=1)
    assert report.ok and report.mode["kind"] == "sampled"
    assert report.checks_run == {"reconstruction": 20, "repair": 20, "total": 40}
    # 4 nodes left out of each subset and 3 survivors left out of each pair,
    # instead of 36 helpers or subset members drawn one by one
    assert set(drawn) == {4, 3}
    drawn.clear()
    measure_and_compare(rs_base(50, 5, GF256), seed=1)
    assert set(drawn) == {5}


def test_measure_and_compare_is_the_one_public_function():
    functions = {
        name
        for name, value in vars(verifier).items()
        if inspect.isfunction(value) and value.__module__ == verifier.__name__
    }
    assert {name for name in functions if not name.startswith("_")} == {"measure_and_compare"}
    assert list(inspect.signature(measure_and_compare).parameters) == ["dss", "predicted", "seed"]
    assert (verifier.EXHAUSTIVE_LIMIT, verifier.TRIALS) == (10**5, 200)


def test_repair_proof_uses_no_messages(monkeypatch):
    import regencode.dss as dss

    def never(*args, **kwargs):
        raise AssertionError("the repair proof encoded a message")

    monkeypatch.setattr(dss, "encode", never)
    monkeypatch.setattr(verifier, "encode", never, raising=False)
    report = measure_and_compare(filenode_blowup(rs_base(3, 2, GF2)))
    assert report.ok


def test_report_json_golden():
    dss = blowup_simple(rs_base(3, 2, GF2))
    report = measure_and_compare(
        dss, OperatingPoint(F(3), F(6), F(8))
    )
    expected = (GOLDEN / "report_blowup_simple_322.json").read_text()
    assert report.to_json() == expected
    data = json.loads(report.to_json())
    assert list(data) == sorted(data)
