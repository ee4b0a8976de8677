"""MDS repair by exchange against the inverse of each whole helper system.

dss.MdsReencodeRule eliminates one reference helper system per code and,
for every other helper set, only the minor of the nodes it swaps in. The
oracle below is the rule it replaced: G_failed * G_H^-1 * the helpers'
symbols, G_H inverted whole for every repair and the product taken through
FieldMatrix.mul. It lives here only, to show that the exchange rebuilds the
same contents, reports the same transfers and fails on the same pairs, for
field elements, rows and forms.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import regencode.dss as dss_module
from regencode.dss import (
    BandwidthReport,
    CodeInvariantError,
    LinearDss,
    MdsReencodeRule,
    RepairRule,
    _as_matrix,
    _shaped,
    encode,
    rs_base,
)
from regencode.gf import (
    GF2,
    GF16,
    GF256,
    FieldMatrix,
    SingularMatrixError,
    _matrix,
    mat_inv,
    mat_solve,
)
from regencode.tradeoff import SystemParams


class InverseRule(RepairRule):
    """The oracle: each helper system inverted whole, G_failed * G_H^-1 * the symbols."""

    def execute(self, dss, failed, helpers, contents):
        symbols = [symbol for h in helpers for symbol in contents[h]]
        stacked = [segment for h in helpers for segment in dss.node_gens[h].segments]
        try:
            inverse = mat_solve(
                _matrix(dss.field, dss.file_len, stacked),
                FieldMatrix.identity(dss.field, len(symbols)),
            )
        except SingularMatrixError as exc:
            raise CodeInvariantError(f"helpers {helpers} are singular") from exc
        rhs, at = _as_matrix(dss.field, symbols)
        content = _shaped(dss.node_gens[failed].mul(inverse).mul(rhs), symbols, at)
        return content, BandwidthReport(dict.fromkeys(helpers, dss.alpha_symbols))


def _code(label, field, gens, k):
    """The d = k code of these generators, repaired by a rule of its own."""
    n, alpha = len(gens), gens[0].rows
    return LinearDss(
        SystemParams(n, k, k), field, gens[0].cols, gens, MdsReencodeRule(), label, k * alpha
    )


def _non_systematic(n, k, field, seed):
    """rs_base(n, k) with every generator times one drawn invertible k x k matrix."""
    rnd = random.Random(seed)
    while True:
        mix = FieldMatrix(field, [[rnd.randrange(field.order) for _ in range(k)] for _ in range(k)])
        try:
            mat_inv(mix)
            break
        except ArithmeticError:
            continue
    gens = [g.mul(mix) for g in rs_base(n, k, field).node_gens]
    return _code(f"mixed({n},{k})", field, [FieldMatrix(field, g.data) for g in gens], k)


def _pairs_of_rows(n, k, field):
    """alpha = 2: node i holds rows 2i and 2i+1 of rs_base(2n, 2k)."""
    rows = [g.data[0] for g in rs_base(2 * n, 2 * k, field).node_gens]
    gens = [FieldMatrix(field, rows[2 * i : 2 * i + 2]) for i in range(n)]
    return _code(f"pairs({n},{k})", field, gens, k)


def _twinned(n, k, field):
    """rs_base(n, k) with node n-1 a copy of node 0: a helper set holding both is singular."""
    gens = rs_base(n, k, field).node_gens
    return _code(f"twinned({n},{k})", field, gens[:-1] + [gens[0]], k)


def _all_pairs(code):
    n, d = code.params.n, code.params.d
    return [
        (failed, helpers)
        for helpers in combinations(range(n), d)
        for failed in range(n)
        if failed not in helpers
    ]


def _shapes(code, seed):
    """The code's contents as elements, as rows of three files, and as its forms."""
    rnd = random.Random(seed)
    files = [[rnd.randrange(code.field.order) for _ in range(code.file_len)] for _ in range(3)]
    contents = [encode(code, message) for message in files]
    rows = [
        [[content[i][r] for content in contents] for r in range(code.alpha_symbols)]
        for i in range(code.params.n)
    ]
    return {
        "elements": contents[0],
        "rows": rows,
        "forms": [g.segments for g in code.node_gens],
    }


def _outcome(rule, code, failed, helpers, contents):
    try:
        rebuilt, bw = rule.execute(code, failed, helpers, contents)
    except CodeInvariantError:
        return CodeInvariantError
    return rebuilt, bw.per_helper


def _agree(runs, monkeypatch):
    """Each (code, pairs, seed) run, interleaved pair by pair, agrees with the oracle.

    Returns how many pair and shape runs raised, and the widths of the
    systems the rule eliminated (reference and minors) by code label.
    """
    solved, widths = [], {}
    solve = dss_module.mat_solve
    monkeypatch.setattr(dss_module, "mat_solve", lambda A, b: solved.append(A.cols) or solve(A, b))
    oracle, raised, steps = InverseRule(), 0, []
    for code, pairs, seed in runs:
        shapes = _shapes(code, seed)
        steps.append([(code, shapes, pair) for pair in pairs])
    for group in zip(*steps):
        for code, shapes, (failed, helpers) in group:
            for shape, contents in shapes.items():
                solved.clear()
                got = _outcome(code.repair_rule, code, failed, helpers, contents)
                widths.setdefault(code.label, []).extend(solved)
                want = _outcome(oracle, code, failed, helpers, contents)
                assert got == want, (code.label, shape, failed, helpers)
                raised += got is CodeInvariantError
    return raised, widths


CODES = [
    ("rs_base GF2", lambda: rs_base(3, 2, GF2)),
    ("rs_base GF16", lambda: rs_base(7, 4, GF16)),
    ("rs_base GF256", lambda: rs_base(9, 6, GF256)),
    ("non-systematic", lambda: _non_systematic(7, 3, GF256, 1)),
    ("alpha 2", lambda: _pairs_of_rows(6, 4, GF256)),
]


@pytest.mark.parametrize("make", [make for _, make in CODES], ids=[name for name, _ in CODES])
def test_exchange_agrees_with_the_whole_inverse(monkeypatch, make):
    code = make()
    pairs = _all_pairs(code)
    random.Random(code.label).shuffle(pairs)  # helper sets met in no particular order
    raised, widths = _agree([(code, pairs, 0)], monkeypatch)
    assert raised == 0
    # one solve of the file's width, the first helper system; every other
    # one is a minor of at most min(k, n - k) nodes
    p, alpha = code.params, code.alpha_symbols
    reference, *minors = widths[code.label]
    assert reference == code.file_len
    assert max(minors) <= min(p.k, p.n - p.k) * alpha


def test_a_singular_first_helper_set_is_refused_and_a_later_one_fails_in_its_minor(monkeypatch):
    code = _twinned(6, 3, GF256)
    pairs = _all_pairs(code)
    first = [pair for pair in pairs if pair[1] == (0, 1, 5)]
    pairs = first + [pair for pair in pairs if pair not in first]
    raised, widths = _agree([(code, pairs, 1)], monkeypatch)
    # 4 helper sets hold both twins, each serving the 3 nodes outside it,
    # each pair run on three shapes
    assert raised == 4 * 3 * 3
    # a failed elimination keeps nothing, so each of those 36 runs eliminates
    # again: the first singular set whole (9 runs, no reference yet), the 3
    # later ones in their minors (27); the first invertible set met becomes
    # the reference, and each of the other 15 invertible sets solves a minor
    assert widths[code.label][:10] == [code.file_len] * 10
    assert len(widths[code.label]) == 9 + 1 + 15 + 27


def test_two_codes_sharing_one_rule_called_alternately(monkeypatch):
    base = rs_base(6, 3, GF256)
    scaled = [GF256.mul(3, x) for x in base.node_gens[0].data[0]]
    gens = [FieldMatrix(GF256, [scaled])] + base.node_gens[1:]
    other = LinearDss(base.params, GF256, 3, gens, base.repair_rule, "scaled", 3)
    pairs = _all_pairs(base)
    raised, widths = _agree([(base, pairs, 2), (other, list(reversed(pairs)), 3)], monkeypatch)
    assert raised == 0
    # the rule keeps one basis per code, so a switch of code eliminates
    # nothing: each code solves its own reference once, 3 wide, then one
    # minor per other helper set, C(3, j) * C(3, j) of j nodes, as it would
    # alone; its helper sets run in a row, so each decoder is built once
    minors = {j: comb(3, j) * comb(3, j) for j in range(1, 4)}
    for label in (base.label, "scaled"):
        reference, *rest = widths[label]
        assert reference == 3 and Counter(rest) == minors, label
