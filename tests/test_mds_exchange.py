"""MDS repair by exchange against the inverse of each whole helper system.

dss.MdsReencodeRule keeps each code's node rows as coordinates over a basis
of rows (gf._Tableau), eliminated once per code, and walks that basis to
each helper set by one Gauss-Jordan pivot per row swapped in. The oracle
below is the rule it replaced: G_failed * G_H^-1 * the helpers' symbols,
G_H inverted whole for every repair and the product taken through
FieldMatrix.mul. It lives here only, to show that the exchange rebuilds the
same contents, reports the same transfers and fails on the same pairs, for
field elements, rows and forms.
"""

import random
from itertools import combinations

import pytest

import regencode.dss as dss_module
import regencode.gf as gf_module
from regencode.dss import (
    BandwidthReport,
    CodeInvariantError,
    LinearDss,
    MdsReencodeRule,
    RepairRule,
    apply_generator,
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
        return [
            (
                apply_generator(dss.node_gens[f].mul(inverse), symbols),
                BandwidthReport(dict.fromkeys(helpers, dss.alpha_symbols)),
            )
            for f in failed
        ]


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
        [(rebuilt, bw)] = rule.execute(code, (failed,), helpers, contents)
    except CodeInvariantError:
        return CodeInvariantError
    return rebuilt, bw.per_helper


def _agree(runs, monkeypatch):
    """Each (code, pairs, seed) run, interleaved pair by pair, agrees with the oracle.

    Returns how many pair and shape runs raised, and by code label the
    (eliminations, pivots) of each run the rule made: the tableau's build
    is one elimination, and the rule solves no system. Only pivots on the
    tableaux dss builds count, by identity.
    """
    counted, runs_by_label, built = [], {}, []
    eliminate, pivot, tableau = gf_module._eliminate, gf_module._Tableau.pivot, dss_module._Tableau
    monkeypatch.setattr(gf_module, "_eliminate", lambda *a: counted.append(0) or eliminate(*a))

    def build(*a):
        built.append(tableau(*a))
        return built[-1]

    def pivoted(t, *a):
        if t in built:  # by identity: a tableau defines no __eq__
            counted.append(1)
        return pivot(t, *a)

    monkeypatch.setattr(dss_module, "_Tableau", build)
    monkeypatch.setattr(gf_module._Tableau, "pivot", pivoted)
    monkeypatch.setattr(dss_module, "mat_solve", None)  # the rule must not call it
    oracle, raised, steps = InverseRule(), 0, []
    for code, pairs, seed in runs:
        shapes = _shapes(code, seed)
        steps.append([(code, shapes, pair) for pair in pairs])
    for group in zip(*steps):
        for code, shapes, (failed, helpers) in group:
            for shape, contents in shapes.items():
                counted.clear()
                got = _outcome(code.repair_rule, code, failed, helpers, contents)
                runs = runs_by_label.setdefault(code.label, [])
                runs.append((counted.count(0), counted.count(1)))
                want = _outcome(oracle, code, failed, helpers, contents)
                assert got == want, (code.label, shape, failed, helpers)
                raised += got is CodeInvariantError
    return raised, runs_by_label


def _walk(helper_sets, start):
    """Nodes swapped in along a walk from start through helper_sets, each set from the last."""
    swapped, last = 0, set(start)
    for helpers in helper_sets:
        swapped += len(set(helpers) - last)
        last = set(helpers)
    return swapped


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
    raised, runs = _agree([(code, pairs, 0)], monkeypatch)
    assert raised == 0
    # one elimination, the tableau's build at the first call, and no solve
    # after it; the basis starts at the first k nodes' rows (each code's
    # are independent) and each call pivots in the rows of the nodes its
    # helpers hold and the last call's did not, at most min(k, n - k) nodes
    p, alpha = code.params, code.alpha_symbols
    eliminations, pivots = zip(*runs[code.label])
    assert eliminations == (1,) + (0,) * (len(eliminations) - 1)
    assert max(pivots) <= min(p.k, p.n - p.k) * alpha
    assert sum(pivots) == alpha * _walk([helpers for _, helpers in pairs], range(p.k))


def test_a_singular_first_helper_set_is_refused_and_a_later_one_fails_in_its_minor(monkeypatch):
    code = _twinned(6, 3, GF256)
    pairs = _all_pairs(code)
    first = [pair for pair in pairs if pair[1] == (0, 1, 5)]
    pairs = first + [pair for pair in pairs if pair not in first]
    raised, runs = _agree([(code, pairs, 1)], monkeypatch)
    # 4 helper sets hold both twins, each serving the 3 nodes outside it,
    # each pair run on three shapes
    assert raised == 4 * 3 * 3
    # the tableau is built once, from nodes 0..2, and never again. A raise
    # clears the last helper set, so each of those 36 runs walks again: in
    # this order each already holds node 0's row and the other non-twin,
    # and refuses twin 5 at once, whose one nonzero coordinate is at node
    # 0's row, without a pivot. So the basis walks the 16 invertible sets
    # alone, each at its first run
    eliminations, pivots = zip(*runs[code.label])
    assert eliminations == (1,) + (0,) * (len(eliminations) - 1)
    singular = [{0, 5} <= set(helpers) for _, helpers in pairs for _ in range(3)]
    assert not any(p for p, refused in zip(pivots, singular) if refused)
    invertible = [helpers for _, helpers in pairs if not {0, 5} <= set(helpers)]
    assert sum(pivots) == _walk(invertible, range(3))


def test_a_walk_that_raises_partway_is_walked_again(monkeypatch):
    # (2, 3, 4) moves the basis to nodes 2..4; the singular set (0, 1, 5)
    # then pivots nodes 0 and 1 in, and twin 5, whose one nonzero
    # coordinate is at node 0's row, stays out: the walk fails with the
    # basis moved. Met again, (2, 3, 4) must walk back, not reuse the
    # positions its last walk left
    code = _twinned(6, 3, GF256)
    pairs = [(0, (2, 3, 4)), (2, (0, 1, 5)), (0, (2, 3, 4))]
    raised, runs = _agree([(code, pairs, 4)], monkeypatch)
    assert raised == 3
    assert [p for _, p in runs[code.label]] == [2, 0, 0, 2, 0, 0, 2, 0, 0]


def test_a_rank_deficient_code_fails_every_helper_set(monkeypatch):
    # every node's row lies in the span of nodes 0 and 1, so the tableau's
    # basis holds 2 rows where a helper set brings 3: each pair is refused
    # before any pivot, as the oracle refuses each singular G_H
    x, y = (g.data[0] for g in rs_base(5, 3, GF256).node_gens[:2])
    gens = [
        FieldMatrix(GF256, [[GF256.mul(a, u) ^ GF256.mul(b, v) for u, v in zip(x, y)]])
        for a, b in [(1, 0), (0, 1), (1, 1), (3, 1), (1, 3)]
    ]
    code = _code("deficient(5,3)", GF256, gens, 3)
    pairs = _all_pairs(code)
    raised, runs = _agree([(code, pairs, 5)], monkeypatch)
    assert raised == len(pairs) * 3
    assert runs[code.label] == [(1, 0)] + [(0, 0)] * (len(pairs) * 3 - 1)


def test_two_codes_sharing_one_rule_called_alternately(monkeypatch):
    base = rs_base(6, 3, GF256)
    scaled = [GF256.mul(3, x) for x in base.node_gens[0].data[0]]
    gens = [FieldMatrix(GF256, [scaled])] + base.node_gens[1:]
    other = LinearDss(base.params, GF256, 3, gens, base.repair_rule, "scaled", 3)
    pairs = _all_pairs(base)
    raised, runs = _agree([(base, pairs, 2), (other, list(reversed(pairs)), 3)], monkeypatch)
    assert raised == 0
    # the rule keeps one tableau per code, so a switch of code eliminates
    # nothing: each code builds its own once, at its first call, and walks
    # it through its own helper sets as it would alone, from nodes 0..2;
    # its helper sets run in a row, so each moves the tableau once
    for label, order in [(base.label, pairs), ("scaled", list(reversed(pairs)))]:
        eliminations, pivots = zip(*runs[label])
        assert eliminations == (1,) + (0,) * (len(eliminations) - 1), label
        assert sum(pivots) == _walk([helpers for _, helpers in order], range(3)), label
        sets = [helpers for _, helpers in order for _ in range(3)]
        assert not any(p for i, p in enumerate(pivots) if i and sets[i - 1] == sets[i]), label
