"""Batches of copies: element copies as rows, form copies run once per column shift.

A composite hands its parts batches of element copies as rows (a plain
list per symbol, one column per copy) and runs the form copies whose
reads are equal up to a column shift once. The oracle below is the
layout this replaced, where a group's form copies were laid out dense
side by side over the columns their segments span and run together; it
lives here only, to show the shift runs give the same forms, transfers
and verdicts, corrupted codes included. A second oracle, _relative, is
the key form copies were matched by before constructions._shift compared
them segment by segment.
"""

import itertools
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

import regencode.constructions as constructions_module
import test_sweep
from regencode.cli import parse_recipe
from regencode.constructions import _BASE, _FILE, _TWIN, _CopiesRule, blowup_full
from regencode.dss import (
    BandwidthReport,
    CodeInvariantError,
    LinearDss,
    _decode,
    _span,
    apply_generator,
)
from regencode.gf import _matrix, _trim
from regencode.verifier import measure_and_compare


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
    for part, hosts in self.copies:
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
    """code with one copy's rows at one position changed, so its copies are not shift-equal.

    "zeroed" zeroes one part row of a drawn copy; "swapped" exchanges a
    drawn copy's rows at a drawn position with those of another copy of
    the same part there. The repair rule and its copy table stay as built.
    """
    rnd = random.Random(seed)
    copies = code.repair_rule.copies
    gens = [list(g.segments) for g in code.node_gens]
    i = rnd.randrange(len(copies))
    part, hosts = copies[i]
    pos = rnd.choice(sorted(p for p, (node, _) in hosts.items() if node[0] != _FILE))
    start, alpha = hosts[pos][1], part.alpha_symbols
    if kind == "zeroed":
        gens[pos][start + rnd.randrange(alpha)] = (0, [])
    else:
        others = [
            h[pos][1]
            for j, (p, h) in enumerate(copies)
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
# measure_and_compare reported with the side-by-side layout; "nested" is
# blowup_full over a corrupted blowup_simple(base(3,2))
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
    if recipe == "nested":  # the nested rule's copies differ under shift-equal outer copies
        return blowup_full(_corrupted(parse_recipe("blowup_simple(base(3,2))"), seed, kind))
    return _corrupted(parse_recipe(recipe), seed, kind)


@pytest.mark.parametrize("case", list(CORRUPTED), ids=str)
def test_copies_that_are_not_shift_equal_agree_with_the_side_by_side_layout(monkeypatch, case):
    code = _corrupted_code(*case)
    _agree_with_oracle(monkeypatch, code, _pairs(code, code.label, per_node=10))  # every pair
    got = measure_and_compare(code)
    with monkeypatch.context() as m:
        m.setattr(_CopiesRule, "execute", _oracle_execute)
        want = measure_and_compare(code)
    assert got.to_json() == want.to_json()
    assert (got.reconstruction_counterexample, got.repair_counterexample) == CORRUPTED[case]


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



def _relative(reads):
    """A form copy's first column, and a key shared by the copies equal to it up to a shift.

    The key holds each segment's start from that column (0 for a zero row), length and entries.
    """
    first = min((start for read in reads for start, entries in read if entries), default=0)
    key = []
    for read in reads:
        for start, entries in read:
            key += (start - first if entries else 0, len(entries))
            key += entries
    return first, tuple(key)


def test_shift_matches_the_copies_whose_relative_keys_are_equal(monkeypatch):
    # every comparison of a form copy with a run of its group, in every
    # proof of the random sweep and of the swapped corruptions: _shift finds
    # a shift iff the keys are equal, and it is the difference of their
    # first columns
    shift, seen = constructions_module._shift, Counter()

    def checked(reads, origin):
        got = shift(reads, origin)
        (first, key), (origin_first, origin_key) = _relative(reads), _relative(origin)
        assert (got is not None) == (key == origin_key)
        assert got is None or got == first - origin_first
        seen[got is None] += 1
        return got

    monkeypatch.setattr(constructions_module, "_shift", checked)
    for text in test_sweep.recipes():
        assert measure_and_compare(parse_recipe(text, budget=test_sweep.BUDGET)).ok, text
    for case in CORRUPTED:
        if case[1] == "swapped":
            assert not measure_and_compare(_corrupted_code(*case)).repair_ok, case
    # copies a shift matches, and copies none does
    assert seen[False] and seen[True], seen
