"""Batches of copies: element copies as rows, a group of form copies run once.

A composite hands its parts batches of element copies as rows (a plain
list per symbol, one column per copy) and runs a group of form copies
once, on its first copy's reads, moving the result to each copy's
columns by the first columns its copy table records. The oracle below is
the layout this replaced, where a group's form copies were laid out
dense side by side over the columns their segments span and run
together; it lives here only, to show the moved runs give the same
forms, transfers and verdicts, faulty parts included. The moves hold
only for the generators the table placed, and a composite holding any
other list is refused.
"""

import itertools
import random
import tracemalloc
from itertools import combinations

import pytest

import test_sweep
from regencode.cli import parse_recipe
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
)
from regencode.dss import (
    BandwidthReport,
    CodeInvariantError,
    LinearDss,
    _decode,
    _span,
    apply_generator,
    encode,
    reconstruct,
    repair,
    rs_base,
)
from regencode.gf import FieldMatrix, _matrix, _trim
from regencode.verifier import measure_and_compare
from test_verifier import ZeroedTransferRule, _with_rule


def _side_by_side(field, copies):
    """The old forms layout: each copy dense over the span of its segments, side by side."""
    spans = [_span([symbol for read in copy for symbol in read]) for copy in copies]
    offsets = list(itertools.accumulate([end - first for first, end in spans], initial=0))
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
    """_CopiesRule.execute as it was, on forms, one failed node at a time."""
    return [_oracle_repair(self, dss, f, helpers, contents) for f in failed]


def _oracle_repair(self, dss, failed, helpers, contents):
    """One failed node rebuilt as _CopiesRule did: one run per group over _side_by_side."""
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
            rebuilt = _decode(part, chosen, [symbol for read in rows for symbol in read])
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


def _pairs(code, seed, per_node=3):
    """Up to per_node drawn helper sets for every failed node."""
    rnd = random.Random(seed)
    n, d = code.params.n, code.params.d
    for failed in range(n):
        sets = list(combinations([i for i in range(n) if i != failed], d))
        for helpers in rnd.sample(sets, min(per_node, len(sets))):
            yield failed, helpers


def _corrupted(code, seed, kind):
    """code with one copy's rows at one position edited, its copy table as built.

    "zeroed" zeroes one part row of a drawn copy; "swapped" exchanges a
    drawn copy's rows at a drawn position with those of another copy of
    the same part there. The repair rule and its copy table stay as built,
    so the rule refuses the edited generator list.
    """
    rnd = random.Random(seed)
    copies = code.repair_rule.copies
    gens = [list(g.segments) for g in code.node_gens]
    i = rnd.randrange(len(copies))
    part, hosts, _ = copies[i]
    pos = rnd.choice(sorted(p for p, (node, _) in hosts.items() if node[0] != _FILE))
    start, alpha = hosts[pos][1], part.alpha_symbols
    if kind == "zeroed":
        gens[pos][start + rnd.randrange(alpha)] = (0, [])
    else:
        others = [
            h[pos][1]
            for j, (p, h, _) in enumerate(copies)
            if j != i and p is part and pos in h and h[pos][0][0] != _FILE
        ]
        other = rnd.choice(others)
        mine, theirs = gens[pos][start : start + alpha], gens[pos][other : other + alpha]
        gens[pos][start : start + alpha], gens[pos][other : other + alpha] = theirs, mine
    return LinearDss(
        code.params,
        code.field,
        code.file_len,
        [_matrix(code.field, code.file_len, rows) for rows in gens],
        code.repair_rule,
        f"{code.label}/{kind}{seed}",
        code.gamma_symbols,
        code.meta,
    )


def _agree_with_oracle(monkeypatch, code, pairs):
    forms = [g.segments for g in code.node_gens]
    for failed, helpers in pairs:
        try:
            [got] = code.repair_rule.execute(code, (failed,), helpers, forms)
        except CodeInvariantError:  # the oracle must fail the same way
            got = CodeInvariantError
        with monkeypatch.context() as m:
            m.setattr(_CopiesRule, "execute", _oracle_execute)
            try:
                [want] = code.repair_rule.execute(code, (failed,), helpers, forms)
            except CodeInvariantError:
                want = CodeInvariantError
        if isinstance(want, tuple):
            assert got[0] == want[0], (code.label, failed, helpers)
            assert got[1].per_helper == want[1].per_helper, (code.label, failed, helpers)
        else:
            assert got == want, (code.label, failed, helpers)


RECIPES = [
    # the verify_blowup recipes, the last nested twice
    "blowup_full(base(4,3))",
    "filenode_blowup(base(4,3))",
    "copy_blowup(base(4,3),1)",
    "blowup_full(blowup_simple(base(3,2)))",
    # nested with twins, and three levels with lost file nodes
    "blowup_simple(copy_blowup(base(3,2),1))",
    "blowup_simple(blowup_full(filenode_blowup(base(2,1))))",
]


@pytest.mark.parametrize("recipe", RECIPES)
def test_shift_keyed_forms_agree_with_the_side_by_side_layout(monkeypatch, recipe):
    code = parse_recipe(recipe)
    _agree_with_oracle(monkeypatch, code, _pairs(code, recipe))


# (code, corruption, seed) -> the reconstruction and repair counterexamples
# measure_and_compare reported with the side-by-side layout, which ran the
# edited generators; "nested" is blowup_full over a corrupted
# blowup_simple(base(3,2)). The reconstruction proof reads the generators
# and keeps its counterexamples; the repair proof is refused at its first
# plan pair
CORRUPTED = {
    ("blowup_full(base(3,2))", "zeroed", 1): ((0, 2, 3), (0, (1, 2, 3))),
    ("blowup_full(blowup_simple(base(3,2)))", "zeroed", 1): ((0, 1, 2, 4), (0, (1, 2, 3, 4))),
    ("filenode_blowup(base(4,3))", "zeroed", 1): ((0, 2, 3), (0, (1, 2, 3))),
    ("nested", "zeroed", 1): ((0, 1, 2, 3), (0, (1, 2, 3, 4))),
    ("blowup_full(base(3,2))", "zeroed", 2): ((0, 1, 2), (0, (1, 2, 3))),
    ("blowup_full(blowup_simple(base(3,2)))", "zeroed", 2): ((0, 1, 3, 4), (0, (1, 2, 3, 4))),
    ("filenode_blowup(base(4,3))", "zeroed", 2): ((0, 1, 2), (0, (1, 2, 3))),
    ("nested", "zeroed", 2): ((0, 1, 2, 3), (0, (1, 2, 3, 4))),
    ("blowup_full(base(3,2))", "swapped", 1): (None, (0, (1, 2, 3))),
    ("blowup_full(blowup_simple(base(3,2)))", "swapped", 1): (None, (0, (1, 2, 3, 4))),
    ("filenode_blowup(base(4,3))", "swapped", 1): (None, (0, (1, 2, 3))),
    ("nested", "swapped", 1): (None, (0, (1, 2, 3, 4))),
    ("blowup_full(base(3,2))", "swapped", 2): (None, (0, (1, 2, 3))),
    ("blowup_full(blowup_simple(base(3,2)))", "swapped", 2): (None, (0, (1, 2, 3, 4))),
    ("filenode_blowup(base(4,3))", "swapped", 2): (None, (0, (1, 2, 3))),
    ("nested", "swapped", 2): (None, (0, (1, 2, 3, 4))),
}


def _corrupted_code(recipe, kind, seed):
    if recipe == "nested":  # the outer table placed the edited part, whose own table refuses it
        return blowup_full(_corrupted(parse_recipe("blowup_simple(base(3,2))"), seed, kind))
    return _corrupted(parse_recipe(recipe), seed, kind)


@pytest.mark.parametrize("case", list(CORRUPTED), ids=str)
def test_generators_the_copy_table_did_not_place_are_refused(case):
    code = _corrupted_code(*case)
    n, k, d = code.params.n, code.params.k, code.params.d
    forms = [g.segments for g in code.node_gens]
    with pytest.raises(CodeInvariantError):
        code.repair_rule.execute(code, (0,), tuple(range(1, d + 1)), forms)
    message = [i % code.field.order for i in range(code.file_len)]
    contents = encode(code, message)  # encode follows the generators
    with pytest.raises(CodeInvariantError):
        repair(code, 0, range(1, d + 1), contents)
    for subset in combinations(range(n), k):
        with pytest.raises(CodeInvariantError):
            reconstruct(code, subset, contents)
    report = measure_and_compare(code)
    assert (report.reconstruction_counterexample, report.repair_counterexample) == CORRUPTED[case]
    assert report.checks_run["repair"] == 1


def test_the_placed_generators_are_checked_node_by_node():
    # a copied list of the placed generators is the same code; a node
    # edited in place, in the code's own list, is refused
    code = parse_recipe("blowup_full(base(3,2))")
    n, k, d = code.params.n, code.params.k, code.params.d
    copied = LinearDss(
        code.params, code.field, code.file_len, list(code.node_gens), code.repair_rule,
        code.label, code.gamma_symbols,
    )
    assert measure_and_compare(copied).to_json() == measure_and_compare(code).to_json()
    message = [i % code.field.order for i in range(code.file_len)]
    contents = encode(copied, message)
    assert reconstruct(copied, range(k), contents) == message
    assert repair(copied, 0, range(1, d + 1), contents)[0] == contents[0]
    code.node_gens[0] = code.node_gens[1]
    with pytest.raises(CodeInvariantError):
        reconstruct(code, range(k), contents)
    with pytest.raises(CodeInvariantError):
        repair(code, 0, range(1, d + 1), contents)
    assert measure_and_compare(copied).ok  # its own list is untouched


def _faulty_part(part, rnd, fault):
    """part with one seeded fault, its own rule kept: a composite's table places it as built.

    "zeroed" zeroes a drawn row, "scaled" sets a drawn row to a nonzero
    multiple of another, and "transfer" wraps the part's rule so that its
    first helper's transfer is dropped.
    """
    if fault == "transfer":
        return _with_rule(part, ZeroedTransferRule(part.repair_rule))
    rows = [g.data for g in part.node_gens]  # new lists of rows: rows are replaced, never mutated
    cells = [(i, a) for i in range(part.params.n) for a in range(part.alpha_symbols)]
    i, a = rnd.choice(cells)
    if fault == "zeroed":
        rows[i][a] = [0] * part.file_len
    else:
        j, b = rnd.choice([cell for cell in cells if cell != (i, a)])
        scale = rnd.randrange(1, part.field.order)
        rows[i][a] = [part.field.mul(scale, x) for x in rows[j][b]]
    return LinearDss(
        part.params, part.field, part.file_len, [FieldMatrix(part.field, r) for r in rows],
        part.repair_rule, f"{part.label}/{fault}", part.gamma_symbols,
    )


COMPOSE = {
    "blowup_simple": blowup_simple,
    "blowup_full": blowup_full,
    "filenode_blowup": filenode_blowup,
    "copy_blowup": lambda part: copy_blowup(part, 1),
    "concat": lambda part: concat([part, rs_base(part.params.n, part.params.k)]),
    "nested": lambda part: blowup_simple(blowup_full(part)),
}


def _codes_over_faulty_parts():
    rnd = random.Random(30)
    for fault in ("zeroed", "scaled", "transfer"):
        for n, k in [(3, 2), (4, 3), (4, 2)]:
            for compose in COMPOSE.values():
                yield compose(_faulty_part(rs_base(n, k), rnd, fault))


def test_table_moved_form_runs_report_as_the_side_by_side_layout(monkeypatch):
    # the forms proof moves each group's one run by the columns the copy
    # table records; the layout it replaced ran every copy's own reads. The
    # whole report must be equal on every sweep recipe, on composites over
    # parts with one seeded fault each, and on every sweep recipe with its
    # composite rule wrapped so that it alters the forms before the table
    # groups them (a copy whose reads are not the first's moved runs alone)
    codes = [parse_recipe(text, budget=test_sweep.BUDGET) for text in test_sweep.recipes()]
    faulty = list(_codes_over_faulty_parts())
    faulty += [_with_rule(code, ZeroedTransferRule(code.repair_rule)) for code in codes]
    for code in codes + faulty:
        got = measure_and_compare(code)
        with monkeypatch.context() as m:
            m.setattr(_CopiesRule, "execute", _oracle_execute)
            want = measure_and_compare(code)
        assert got.to_json() == want.to_json(), code.label
        assert got.ok != (code in faulty), code.label  # every seeded fault fails its proof


def test_a_forms_repair_of_a_deep_blowup_lays_nothing_out_dense():
    # one proof step on the generators' segments: 1.86-1.95 MB traced when a
    # group's form copies were laid out dense over their spans, 0.05 MB keyed
    code = parse_recipe("blowup_simple(blowup_full(filenode_blowup(base(2,1))))")
    forms = [g.segments for g in code.node_gens]
    helpers = tuple(range(1, code.params.d + 1))
    code.repair_rule.execute(code, (0,), helpers, forms)  # the base rule's tableau is kept
    tracemalloc.start()
    try:
        [(rebuilt, _)] = code.repair_rule.execute(code, (0,), helpers, forms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rebuilt == forms[0]
    assert peak < 500_000
