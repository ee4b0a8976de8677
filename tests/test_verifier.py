import inspect
import json
import random
import tracemalloc
from fractions import Fraction as F
from itertools import accumulate, combinations
from math import comb
from pathlib import Path

import pytest

import regencode.gf as gf_module
import test_gf
import regencode.verifier as verifier
from regencode.constructions import (
    _BASE,
    _FILE,
    _TWIN,
    _CopiesRule,
    blowup_full,
    blowup_simple,
    concat,
    copy_blowup,
    filenode_blowup,
    iterate,
)
from regencode.cli import main, parse_recipe
import regencode.dss as dss_module
from regencode.dss import (
    BandwidthReport,
    CodeInvariantError,
    InputError,
    LinearDss,
    MdsReencodeRule,
    RepairRule,
    apply_generator,
    rs_base,
)
from regencode.gf import (
    GF2,
    GF16,
    GF256,
    FieldMatrix,
    SingularMatrixError,
    _matrix,
    _span,
    _trim,
    mat_rank,
    mat_solve,
)
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
    dropped = 0  # the index, among the helpers, of the one whose transfer is dropped

    def __init__(self, inner):
        self.inner = inner

    def execute(self, dss, failed, helpers, contents):
        tampered = contents.copy()  # a list by node, or a dict as a composite hands its part
        lost = helpers[self.dropped]
        tampered[lost] = [_zeroed(s) for s in contents[lost]]
        return self.inner.execute(dss, failed, helpers, tampered)


class ZeroedLastTransferRule(ZeroedTransferRule):
    """Fault model: the last helper's transfer is dropped on the wire."""

    kind = "zeroed_last_transfer"
    dropped = -1


class PassThroughRule(RepairRule):
    """Another code's rule behind a wrapper: a composite's has no copy table then."""

    kind = "pass_through"

    def __init__(self, inner):
        self.inner = inner

    def execute(self, dss, failed, helpers, contents):
        return self.inner.execute(dss, failed, helpers, contents)


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
    # a composite takes its fault in a part: its table renders its own generators
    cases = [
        (corrupt_generator(rs_base(3, 2, GF256), 0), (0, 1)),
        (blowup_full(corrupt_generator(rs_base(3, 2, GF2), 0)), (0, 1, 2)),  # a composite
    ]
    for dss, counterexample in cases:
        report = measure_and_compare(dss)
        assert not report.reconstruction_ok and not report.ok
        assert report.reconstruction_counterexample == counterexample
        # the sweep stopped at its first subset, the counterexample
        assert report.checks_run["reconstruction"] == 1


def _in_proof(monkeypatch, owner, name, record, check="_check_reconstruction"):
    """record(*args) of each call of owner.name one proof makes, as a live list.

    check names the proof, verifier._check_reconstruction or _check_repair.
    Both proofs walk the code's one tableau, which the repair proof, run
    first, builds.
    """
    calls = []
    wrapped = getattr(owner, name)

    def spy(*args):
        calls.append(record(*args))
        return wrapped(*args)

    proof = getattr(verifier, check)

    def scoped(*args):
        with monkeypatch.context() as m:
            m.setattr(owner, name, spy)
            return proof(*args)

    monkeypatch.setattr(verifier, check, scoped)
    return calls


def _eliminations(monkeypatch):
    """The (rows, columns) of each elimination the reconstruction proof runs."""
    return _in_proof(monkeypatch, gf_module, "_eliminate", lambda _, work, cols: (len(work), cols))


def _builds(monkeypatch):
    """The (columns, rows) of each tableau built, one elimination each, as a live list."""
    builds, init = [], gf_module._Tableau.__init__

    def build(self, field, width, nodes):
        builds.append((width, sum(map(len, nodes.values()))))
        init(self, field, width, nodes)

    monkeypatch.setattr(gf_module._Tableau, "__init__", build)
    return builds


def test_concat_reconstruction_is_proved_once_per_distinct_block(monkeypatch):
    # the three copies of rs_base(6, 3) share one copy key: its 20 3-subsets
    # of 6 nodes prove all 816 15-subsets, which the stacked sweep ranked
    # one by one. The part is eliminated once, as its tableau, by the
    # repair proof; the reconstruction proof eliminates nothing and walks
    # that tableau's basis through the 3-subsets by pivots alone
    builds, calls = _builds(monkeypatch), _eliminations(monkeypatch)
    report = measure_and_compare(concat([rs_base(6, 3)] * 3))
    assert report.ok
    assert report.checks_run == {"reconstruction": 816, "repair": 2448, "total": 3264}
    assert builds == [(3, 6)] and calls == []


def _stacked_sweep(dss, report, subsets):
    """The stacked-rank sweep the table proof replaced, kept as its oracle.

    A subset rebuilds the file iff its stacked generators have column rank
    B, the sum of their ranks on the column blocks they tile into
    (test_gf.tiles); the first subset that does not is the counterexample.
    """
    run = 0
    for run, subset in enumerate(subsets, 1):
        stack = [seg for i in subset for seg in dss.node_gens[i].segments]
        rank = 0
        for lo, hi, rows in test_gf.tiles(stack, dss.file_len):
            block = [(start - lo, e) if e else (0, []) for start, e in map(stack.__getitem__, rows)]
            rank += mat_rank(_matrix(dss.field, hi - lo, block))
        if rank != dss.file_len:
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


def _block_faults():
    """Seeded faults in small compositions and in wide MDS codes, 96 codes.

    The codes are over GF(2^8), GF(2^4) and GF(2). A composite takes its
    fault in a part, before composing (building it from edited generators
    is refused: its copy table renders its own); the MDS codes take theirs
    directly.
    """

    def pair(part):
        return concat([part, rs_base(3, 2)])

    recipes = [  # (code or part, how a part is composed)
        (rs_base(3, 2), lambda part: concat([part] * 3)),
        (rs_base(3, 2), pair),
        (rs_base(3, 2), filenode_blowup),
        (rs_base(3, 2), lambda part: copy_blowup(part, 1)),
        (rs_base(4, 3), blowup_simple),
        (rs_base(3, 2), blowup_full),
        (rs_base(3, 2), lambda part: blowup_full(blowup_simple(part))),
        (rs_base(2, 1), lambda part: iterate(part, 2)),
        (rs_base(3, 2, GF2), blowup_full),
        (rs_base(4, 2), blowup_simple),
        (rs_base(4, 2), lambda part: concat([rs_base(4, 2), part])),
        (rs_base(3, 1), blowup_full),  # any nonzero multiple of a row is a node of it
        (rs_base(4, 1), lambda part: concat([rs_base(4, 1), part])),
        (rs_base(8, 5), None),
        (rs_base(16, 12), None),
        (rs_base(9, 4, GF16), None),
    ]
    rnd = random.Random(16)
    return [
        (compose or (lambda part: part))(_with_one_fault(code, rnd))
        for code, compose in recipes
        for _ in range(6)
    ]


def test_block_proof_agrees_with_the_stacked_sweep(monkeypatch):
    # the seeded faults (_block_faults), each verified exhaustively and
    # sampled, by the table proof and by the stacked-rank sweep: the
    # reports must be equal, counterexample and checks_run included
    broken = later = kept = 0
    exhaustive = verifier.EXHAUSTIVE_LIMIT
    monkeypatch.setattr(verifier, "TRIALS", 12)
    for faulty in _block_faults():
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


def test_reconstruction_eliminates_one_reference_then_walks(monkeypatch):
    # rs_base(n, k) is one k-wide block of n one-row nodes, and every
    # k-subset must have full rank on it. The code's tableau is the block
    # laid out transposed, k x n, eliminated once, by the repair proof,
    # which walks it through the helper sets in combinations order and
    # leaves its basis at the last, nodes n-k..n-1. From there the subset
    # (0, ..., k-1) pivots in the min(k, n-k) nodes it holds that the last
    # did not, and each later subset those the one before it did not: the
    # walk MDS repair takes over the same helper sets, where each subset
    # took a k x k rank
    builds, calls = _builds(monkeypatch), _eliminations(monkeypatch)
    pivots = _in_proof(monkeypatch, gf_module._Tableau, "pivot", lambda *a: 1)
    for n, k, walked in [(16, 12, 2260), (14, 7, 4706)]:
        builds.clear()
        pivots.clear()
        report = measure_and_compare(rs_base(n, k))
        assert report.ok and report.checks_run["reconstruction"] == comb(n, k)
        assert builds == [(k, n)] and calls == []
        swapped, last = 0, set(range(n - k, n))
        for subset in combinations(range(n), k):
            swapped, last = swapped + len(set(subset) - last), set(subset)
        assert len(pivots) == swapped == walked


def test_a_block_of_rank_below_its_width_fails_every_subset(monkeypatch):
    # every node stores a multiple of node 0's row: the one 2-wide block has
    # rank 1, so the tableau has too few basic rows, no subset has full
    # rank, and no subset is walked. The code keeps its tableau: only its
    # first proof eliminates
    base = rs_base(4, 2)
    row = base.node_gens[0].data[0]
    gens = [FieldMatrix(GF256, [[GF256.mul(c, x) for x in row]]) for c in (1, 2, 3, 4)]
    code = LinearDss(base.params, GF256, 2, gens, base.repair_rule, "rank 1", 2)
    builds = _builds(monkeypatch)
    monkeypatch.setattr(verifier, "TRIALS", 4)
    for limit in (verifier.EXHAUSTIVE_LIMIT, 0):
        monkeypatch.setattr(verifier, "EXHAUSTIVE_LIMIT", limit)
        builds.clear()
        report = measure_and_compare(code, seed=limit)
        assert builds == ([(2, 4)] if limit else [])
        # the first subset run, in combinations or draw order, is the counterexample
        assert report.checks_run["reconstruction"] == 1
        assert report.reconstruction_counterexample == ((0, 1) if limit else (1, 3))
        with monkeypatch.context() as m:
            m.setattr(verifier, "_check_reconstruction", _stacked_sweep)
            assert measure_and_compare(code, seed=limit).to_json() == report.to_json()


# The forms oracle: a composite's repair run on its generators' rows, as
# _CopiesRule.execute ran it before the copy table took elements and rows
# only. Each group of the plan runs once, its form copies laid out dense
# side by side over the columns their segments span, and a lost file node
# decodes by its part's stacked generators. The table proof
# (verifier._Proof) must report as this does, faulty parts included


def _forms_decode(code, subset, forms):
    """The message, as forms, from those of subset's nodes: their stacked generators solved.

    CodeInvariantError if the nodes do not determine the file.
    """
    first, end = _span(forms)
    rhs = _matrix(code.field, end - first, [(start - first, entries) for start, entries in forms])
    stack = [segment for i in subset for segment in code.node_gens[i].segments]
    try:
        x = mat_solve(_matrix(code.field, code.file_len, stack), rhs)
    except SingularMatrixError as exc:
        raise CodeInvariantError(f"subset {subset} does not determine the file") from exc
    return [_trim(row, first + start) for start, row in x.segments]


def _side_by_side(field, copies):
    """Each copy's reads dense over the span of its segments, side by side, and the inverse."""
    spans = [_span([symbol for read in copy for symbol in read]) for copy in copies]
    offsets = list(accumulate([end - first for first, end in spans], initial=0))
    width, rows = offsets.pop(), []
    for j in range(len(copies[0])):
        helper_rows = []
        for t in range(len(copies[0][j])):
            row = [0] * width
            for copy, (first, _), off in zip(copies, spans, offsets):
                start, entries = copy[j][t]
                row[off + start - first : off + start - first + len(entries)] = entries
            helper_rows.append((0, row))
        rows.append(helper_rows)

    def unlay(rebuilt):
        dense = _matrix(field, width, rebuilt).data
        return [
            [_trim(row[off : off + end - first], first) for row in dense]
            for (first, end), off in zip(spans, offsets)
        ]

    return rows, unlay


def _oracle_execute(self, dss, failed, helpers, contents):
    """_CopiesRule.execute on forms, one failed node at a time (monkeypatched in)."""
    return [_oracle_repair(self, dss, f, helpers, contents) for f in failed]


def _oracle_repair(self, dss, failed, helpers, contents):
    """One failed node's forms rebuilt: one run per group over _side_by_side."""
    assert type(contents[helpers[0]][0]) is tuple
    counts = dict.fromkeys(helpers, 0)
    out, groups = [], {}
    for part, hosts, _ in self.copies:
        lost = hosts.get(failed)
        if lost is None:
            continue
        desc, alpha = lost[0], part.alpha_symbols
        at = {}
        for q in helpers:
            node = hosts.get(q)
            if node is not None:
                at[node[0]] = (q, node[1])
        if desc[0] == _FILE:
            used = [(node[1], where) for node, where in at.items() if node[0] == _BASE]
            cand = dict(sorted(used[: part.params.k]))
            groups.setdefault((part, _FILE, tuple(cand)), []).append((len(out), cand))
            out += [0] * part.file_len
            continue
        u = desc[1]
        twin = at.get((_TWIN[desc[0]], u))
        if twin is not None:
            q, s = twin
            out.extend(contents[q][s : s + alpha])
            counts[q] += alpha
            continue
        file_at = at.get((_FILE,))
        if file_at is not None:
            q, s = file_at
            out.extend(apply_generator(part.node_gens[u], contents[q][s : s + part.file_len]))
            counts[q] += alpha
            continue
        cand = {}
        for node, where in at.items():
            if node[0] != _FILE and node[1] != u:
                if node[1] not in cand or node[0] == _BASE:
                    cand[node[1]] = where
        chosen = tuple(sorted(cand)[: part.params.d])
        groups.setdefault((part, u, chosen), []).append((len(out), cand))
        out += [0] * alpha
    for (part, u, chosen), members in groups.items():
        alpha = part.alpha_symbols
        copies = [
            [contents[q][s : s + alpha] for q, s in map(cand.__getitem__, chosen)]
            for _, cand in members
        ]
        if len(members) == 1:
            rows, unlay = copies[0], lambda rebuilt: [rebuilt]
        else:
            rows, unlay = _side_by_side(part.field, copies)
        if u == _FILE:
            rebuilt = _forms_decode(part, chosen, [symbol for read in rows for symbol in read])
            per_helper = dict.fromkeys(chosen, alpha)
        else:
            [(rebuilt, report)] = part.repair_rule.execute(
                part, (u,), chosen, dict(zip(chosen, rows))
            )
            per_helper = report.per_helper
        for (slot, cand), piece in zip(members, unlay(rebuilt)):
            out[slot : slot + len(piece)] = piece
            for w, amount in per_helper.items():
                counts[cand[w][0]] += amount
    return out, BandwidthReport(counts)


def _f_major_sweep(dss, report, pairs, by_helpers):
    """The plan-order repair sweep the helper-grouped one replaced, kept as its oracle.

    Each pair, failed node first, runs the rule once on the generators'
    segments, one failed node a call, a copy table as the forms oracle
    (_oracle_execute), up to the first that fails; the bandwidth is folded
    from the reports of the pairs proved.
    """
    forms = [g.segments for g in dss.node_gens]
    bandwidth = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_CopiesRule, "execute", _oracle_execute)
        for failed, helpers in pairs:
            try:
                [(rebuilt, bw)] = dss.repair_rule.execute(dss, (failed,), helpers, forms)
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


def _repair_faults():
    """Seeded faults in MDS codes and small compositions, 43 codes.

    A composite takes each fault in a part, before composing: a generator
    fault (its copy table renders its own generators), or a rule fault,
    the first or the last helper's transfer dropped (a rule wrapping its
    own takes no forms, and its proof is refused). A generator fault is
    drawn again until the composed code fails its proof, as a fault a
    composite hides tests nothing its clean codes do not. The last three
    codes are node_4, a clean code, and one sharing its rule object.
    """
    clean_part = rs_base(3, 2)
    recipes = [  # (code or part, how a part is composed)
        (rs_base(5, 3), None),
        (rs_base(6, 2), None),
        (rs_base(3, 2), lambda part: concat([clean_part, part, clean_part])),
        (rs_base(4, 3), blowup_simple),
        (rs_base(3, 2), filenode_blowup),
        (rs_base(3, 2), lambda part: copy_blowup(part, 1)),
        (rs_base(3, 2), blowup_full),
    ]
    rnd = random.Random(18)
    faulty = []
    for code, compose in recipes:
        place = compose or (lambda part: part)
        for _ in range(4):
            drawn = place(_with_one_fault(code, rnd))
            while measure_and_compare(drawn).ok:
                drawn = place(_with_one_fault(code, rnd))
            faulty.append(drawn)
        faulty.append(place(_with_rule(code, ZeroedTransferRule(code.repair_rule))))
        if compose is not None:
            faulty.append(compose(_with_rule(code, ZeroedLastTransferRule(code.repair_rule))))
    # helper order meets (2, (0, 1, 4)) first, plan order (0, (1, 2, 4))
    node_4 = corrupt_generator(rs_base(5, 3), 4)
    faulty.append(node_4)
    # a clean code, then one sharing its rule object with node 0 zeroed
    clean = rs_base(4, 2)
    return faulty + [clean, corrupt_generator(clean, 0)]


def test_helper_grouped_repair_agrees_with_the_plan_order_sweep(monkeypatch):
    # the seeded faults (_repair_faults), each verified exhaustively and
    # sampled, by the helper-grouped sweep and by the plan-order one: the
    # reports must be equal, counterexample, checks_run, measured point and
    # symmetry included. Every code but the clean one fails its proof
    faulty = _repair_faults()
    node_4, clean = faulty[-3:-1]
    assert len(faulty) == 43
    assert all(not measure_and_compare(code).ok for code in faulty if code is not clean)
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


def test_a_proof_builds_one_tableau_per_base_code(monkeypatch):
    # the code keeps its tableau, so both proofs walk one: the three
    # distinct bases of the concat build one each, the nested code's one
    # base one, and no composite builds any
    builds = _builds(monkeypatch)
    for code, built in [
        (rs_base(16, 12), 1),
        (parse_recipe("iterate(base(3,2),2)"), 1),
        (parse_recipe("concat(base(6,3),base(6,3),base(6,3))"), 3),
    ]:
        builds.clear()
        assert measure_and_compare(code).ok, code.label
        assert len(builds) == built, code.label


def test_a_code_proved_twice_reports_the_same(monkeypatch):
    # a code's tableau outlives its proof: the second proof of the same
    # object builds none and walks on from the basis the first left, and
    # span's verdict and the coordinates it leaves do not depend on where
    # the basis starts, so each report is byte-identical
    builds = _builds(monkeypatch)
    monkeypatch.setattr(verifier, "TRIALS", 12)
    for code in _block_faults() + _repair_faults():
        for limit in (verifier.EXHAUSTIVE_LIMIT, 0):
            monkeypatch.setattr(verifier, "EXHAUSTIVE_LIMIT", limit)
            first = measure_and_compare(code, seed=limit).to_json()
            builds.clear()
            assert measure_and_compare(code, seed=limit).to_json() == first, (code.label, limit)
            assert builds == [], code.label


def test_repair_proof_eliminates_each_helper_system_once(monkeypatch):
    # the C(n, k) helper sets each serve the n - k nodes outside them, and
    # each is one rule call for all of them, in combinations order: 1,820
    # calls for the 7,280 pairs of rs_base(16, 12). The first builds the
    # code's tableau, on nodes 0..k-1, the first helper set, and the rule
    # solves no system: each later helper set pivots in the nodes it holds
    # and the one before it did not, 1.24 a set for rs_base(16, 12). Only
    # pivots in the repair proof count: the reconstruction proof walks the
    # same tableau after it, and builds none
    builds, calls = _builds(monkeypatch), []
    pivots = _in_proof(monkeypatch, gf_module._Tableau, "pivot", lambda *a: 1, "_check_repair")
    execute = MdsReencodeRule.execute
    monkeypatch.setattr(MdsReencodeRule, "execute", lambda *a: calls.append(1) or execute(*a))
    monkeypatch.setattr(dss_module, "mat_solve", None)
    for n, k, walked in [(8, 5, 72), (16, 12, 2256)]:
        builds.clear()
        pivots.clear()
        calls.clear()
        report = measure_and_compare(rs_base(n, k))
        assert report.ok and report.checks_run["repair"] == comb(n, k) * (n - k)
        assert builds == [(k, n)]
        assert len(calls) == comb(n, k)
        swapped, last = 0, set(range(k))
        for helpers in combinations(range(n), k):
            swapped, last = swapped + len(set(helpers) - last), set(helpers)
        assert len(pivots) == swapped == walked
    assert len(calls) == 1820


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


def test_a_failing_repair_proof_of_the_nested_code_costs_its_segments():
    # a rebuilt node that differs from its generator is compared on trimmed
    # segments: rendering both sides dense peaked at about 152 MB traced.
    # The fault sits in the base's rule, which the copy table places as built
    base = rs_base(3, 2)
    dss = iterate(_with_rule(base, ZeroedTransferRule(base.repair_rule)), 2)
    tracemalloc.start()
    try:
        report = measure_and_compare(dss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mode == {"kind": "exhaustive"}
    assert report.reconstruction_ok
    assert report.repair_counterexample == (0, (1, 2, 3, 4))
    assert report.checks_run == {"reconstruction": 5, "repair": 1, "total": 6}
    assert peak < 5 * 2**20, peak


def test_a_wrapped_composite_is_refused_before_any_tableau(monkeypatch):
    # a copy table takes no forms. A rule wrapping a composite's has no
    # table, so its code could be proved only on the generators' forms: its
    # proof is refused at the rule's first call, since repair is proved
    # first. Reconstruction first laid out one dense tableau of all the
    # stacked generators, 5,760 x 14,400 here (92.8 s and 1 GB)
    code = blowup_full(filenode_blowup(rs_base(3, 2)), budget=10**12)
    forms = [g.segments for g in code.node_gens]
    helpers = tuple(range(1, code.params.d + 1))
    with pytest.raises(InputError, match="not forms"):
        code.repair_rule.execute(code, (0,), helpers, forms)
    built = []
    monkeypatch.setattr(dss_module, "_Tableau", lambda *a: built.append(a))
    for rule in (PassThroughRule(code.repair_rule), ZeroedTransferRule(code.repair_rule)):
        with pytest.raises(InputError, match="not forms"):
            measure_and_compare(_with_rule(code, rule))
    assert built == []


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
