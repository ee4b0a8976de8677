import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest

import test_gf
import regencode.constructions as constructions_module
import regencode.dss as dss_module
import regencode.gf as gf_module
from regencode.cli import parse_recipe
from regencode.constructions import (
    Shape,
    blowup_full,
    blowup_simple,
    concat,
    copy_blowup,
    filenode_blowup,
    iterate,
)
from regencode.dss import (
    InputError,
    ResourceError,
    encode,
    reconstruct,
    repair,
    rs_base,
)
from regencode.gf import GF2, GF16, GF256, FieldMatrix, _matrix
from regencode.tradeoff import (
    OperatingPoint,
    RangeError,
    SystemParams,
    perf_p1,
    perf_p3,
    perf_p4,
    timeshare_bound,
)
from regencode.verifier import measure_and_compare


def declared_point(dss):
    return OperatingPoint(
        F(dss.alpha_symbols), F(dss.gamma_symbols), F(dss.file_len)
    )


def test_blowup_simple_example_2_1():
    dss = blowup_simple(rs_base(3, 2, GF2))
    assert dss.params == SystemParams(4, 3, 3)
    assert (dss.alpha_symbols, dss.gamma_symbols, dss.file_len) == (3, 6, 8)
    report = measure_and_compare(dss, declared_point(dss))
    assert report.ok and report.match
    assert report.measured.alpha == 3
    assert report.measured.gamma == 6
    assert report.measured.file_size == 8
    # the j-th copy parks its empty node at position j
    assert dss.meta["copy_layout"]["empty_positions"] == [0, 1, 2, 3]


def test_blowup_simple_zero_message():
    dss = blowup_simple(rs_base(3, 2, GF2))
    assert encode(dss, [0] * 8) == [[0] * 3] * 4


def test_blowup_simple_matches_p1():
    dss = blowup_simple(rs_base(3, 2, GF2))
    pt = perf_p1(SystemParams(4, 3, 3), 3, 2)  # alpha = 3, gamma = 2*3
    assert pt.gamma == dss.gamma_symbols
    assert pt.file_size == dss.file_len


def test_blowup_simple_bandwidth_every_pair():
    dss = blowup_simple(rs_base(3, 2, GF2))
    contents = encode(dss, [1, 0, 1, 1, 0, 1, 1, 0])
    for failed in range(4):
        helpers = tuple(i for i in range(4) if i != failed)
        rebuilt, bw = repair(dss, failed, helpers, contents)
        assert rebuilt == contents[failed]
        assert bw.total == 3 * 2  # n * gamma_base, every pair


def test_blowup_full_example():
    dss = blowup_full(rs_base(3, 2, GF2))
    assert dss.params == SystemParams(4, 3, 3)
    assert (dss.alpha_symbols, dss.gamma_symbols, dss.file_len) == (18, 36, 48)
    report = measure_and_compare(dss, declared_point(dss))
    assert report.ok and report.match and report.symmetric
    assert F(dss.file_len, dss.alpha_symbols) == F(8, 3)
    assert perf_p1(SystemParams(4, 3, 3), 1, 2).file_size == F(8, 3)


def test_blowup_full_per_helper_twelve():
    dss = blowup_full(rs_base(3, 2, GF2))
    report = measure_and_compare(dss)
    assert report.repair_ok and report.checks_run["repair"] == 4
    # every helper sends 12 in every repair: equal helpers, equal totals of 3 x 12
    assert report.symmetric and report.gamma_constant and report.measured.gamma == 36


def test_blowup_full_drop_rule_keeps_symmetry():
    # base n - d - 1 > 0 exercises the largest-index exclusion; totals stay
    # d*n!*beta + (n-d-1)*n!*(d/(d+1))*beta = 64 per helper
    dss = blowup_full(rs_base(4, 2, GF16))
    assert (dss.alpha_symbols, dss.gamma_symbols, dss.file_len) == (96, 192, 240)
    report = measure_and_compare(dss, declared_point(dss))
    assert report.ok and report.symmetric
    # every helper sends 64 in every repair: equal helpers, equal totals of 3 x 64
    assert report.gamma_constant and report.measured.gamma == 192


def test_blowup_simple_not_symmetric_in_general():
    # the cyclic layout only happens to be symmetric at (3,2,2); with a
    # (4,2,2) base the excluded-helper choice is position-dependent
    report = measure_and_compare(blowup_simple(rs_base(4, 2, GF16)))
    assert not report.symmetric and report.symmetry_max_deviation == 1


def test_blowup_full_and_simple_share_ratios():
    full = blowup_full(rs_base(3, 2, GF2))
    simple = blowup_simple(rs_base(3, 2, GF2))
    assert F(full.gamma_symbols, full.alpha_symbols) == F(
        simple.gamma_symbols, simple.alpha_symbols
    )
    assert F(full.file_len, full.alpha_symbols) == F(
        simple.file_len, simple.alpha_symbols
    )


def test_blowup_full_resource_guard():
    with pytest.raises(ResourceError):
        blowup_full(rs_base(6, 5, GF256))
    with pytest.raises(ResourceError):
        blowup_full(rs_base(3, 2, GF2), budget=10)


class Built(Exception):
    """Raised in place of building, once the budget has admitted a recipe."""


@pytest.mark.parametrize(
    "j, admitted", [(2, True), (3, False)]  # 49,766,400 and 2.6e13 entries
)
def test_iterate_budget_predicts_every_level(monkeypatch, j, admitted):
    import regencode.constructions as constructions

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(constructions, "_compose", build)
    with pytest.raises(Built if admitted else ResourceError):
        iterate(rs_base(3, 2), j)


def test_concat_checks_the_budget():
    parts = [blowup_full(rs_base(3, 2, GF2)) for _ in range(2)]  # 3,456 entries each
    with pytest.raises(ResourceError, match="13824 generator entries"):
        concat(parts, budget=5000)
    assert concat(parts, budget=13824).params == SystemParams(8, 7, 7)


def test_iterate_once_is_blowup_full():
    a = iterate(rs_base(3, 2, GF2), 1)
    b = blowup_full(rs_base(3, 2, GF2))
    assert a.params == b.params
    assert [g.data for g in a.node_gens] == [g.data for g in b.node_gens]
    assert a.gamma_symbols == b.gamma_symbols


def test_iterate_twice_small_base():
    base = rs_base(2, 1, GF2)
    dss = iterate(base, 2)
    assert dss.params == SystemParams(4, 3, 3)
    # alpha recursion n*n! per level: 2*2*1 = 4 then 3*6*4 = 72
    assert dss.alpha_symbols == 72
    assert dss.file_len == 24 * 6
    report = measure_and_compare(dss, declared_point(dss))
    assert report.ok and report.symmetric
    # each 3-subset stack (216 x 144) is past the size eliminated whole
    rnd = random.Random(12)
    message = [rnd.randrange(2) for _ in range(dss.file_len)]
    contents = encode(dss, message)
    for subset in combinations(range(4), 3):
        assert reconstruct(dss, subset, contents) == message
    # normalized performance is (n+j)/n times the base ratio
    assert F(dss.file_len, dss.alpha_symbols) == F(4, 2) * F(
        base.file_len, base.alpha_symbols
    )


def test_iterate_ratio_formula_without_building():
    # (3,2,2) twice: predicted (5,4,4) ratio = (5/3) * 2 = 10/3 at gamma = 2*alpha
    base = rs_base(3, 2, GF2)
    a1, g1, b1 = 18, 36, 48  # after one level
    a2, g2, b2 = 4 * 24 * a1, 4 * 24 * g1, 120 * b1
    assert F(b2, a2) == F(10, 3)
    assert F(g2, a2) == 2
    with pytest.raises(RangeError):
        iterate(base, 0)


def test_concat_example_6_1():
    parts = [rs_base(3, 2, GF2) for _ in range(3)]
    dss = concat(parts)
    assert dss.params == SystemParams(9, 8, 8)
    assert (dss.alpha_symbols, dss.gamma_symbols, dss.file_len) == (1, 2, 6)
    report = measure_and_compare(dss, declared_point(dss))
    assert report.ok and report.match
    assert not report.symmetric  # helpers outside the owning part send nothing


def test_concat_single_part_identity():
    base = rs_base(3, 2, GF2)
    assert concat([base]) is base


def test_concat_mixed_sizes():
    dss = concat([rs_base(4, 3, GF256), rs_base(3, 2, GF256)])
    assert dss.params == SystemParams(7, 6, 6)
    assert dss.file_len == 5
    rnd = random.Random(0)
    msg = [rnd.randrange(256) for _ in range(5)]
    contents = encode(dss, msg)
    subsets = list(combinations(range(7), 6))
    assert len(subsets) == 7
    for subset in subsets:
        assert reconstruct(dss, subset, contents) == msg
    # bandwidth is not constant: the (4,3) part repairs with 3 symbols
    report = measure_and_compare(dss, None)
    assert report.ok and not report.gamma_constant
    assert report.measured.gamma == 3


def test_concat_repair_is_the_owning_part_repair_shifted():
    parts = [rs_base(4, 3, GF256), rs_base(3, 2, GF256)]
    dss = concat(parts)
    forms = [g.segments for g in dss.node_gens]
    part_forms = [[g.segments for g in part.node_gens] for part in parts]
    pairs = 0
    for failed in range(7):
        j = 0 if failed < 4 else 1
        part, node_off, col_off = parts[j], [0, 4][j], [0, 3][j]
        others = [i for i in range(7) if i != failed]
        for helpers in combinations(others, 6):
            [(rebuilt, bw)] = dss.repair_rule.execute(dss, (failed,), helpers, forms)
            # the part repairs with its d smallest own helpers
            local = [q - node_off for q in helpers if 0 <= q - node_off < part.params.n]
            [(own_forms, own)] = part.repair_rule.execute(
                part, (failed - node_off,), tuple(local[: part.params.d]), part_forms[j]
            )
            own_rows = _matrix(GF256, part.file_len, own_forms).data
            assert bw.per_helper == {q: own.per_helper.get(q - node_off, 0) for q in helpers}
            pad = 5 - col_off - part.file_len
            placed = _matrix(GF256, 5, rebuilt).data
            assert placed == [[0] * col_off + row + [0] * pad for row in own_rows]
            pairs += 1
    assert pairs == 7


def test_copies_are_placed_only_where_they_host():
    # a concat part hosts its own run; a blowup copy all but its empty node
    cases = [
        (concat([rs_base(3, 2), rs_base(4, 3), rs_base(3, 2)]), [3, 4, 3]),
        (blowup_full(rs_base(3, 2)), [3] * 24),
        (filenode_blowup(rs_base(3, 2)), [4] * 24),
    ]
    for dss, sizes in cases:
        records = [hosts for _, hosts, _ in dss.repair_rule.copies]
        assert [len(hosts) for hosts in records] == sizes
        assert all(node[0] != "empty" for hosts in records for node, _ in hosts.values())
    concat_records = [hosts for _, hosts, _ in cases[0][0].repair_rule.copies]
    assert [sorted(hosts) for hosts in concat_records] == [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9]]


def test_composed_rows_share_their_part_segments():
    # each rendered row is its part row's segment moved to its copy's
    # columns, whose first the copy table records; the copies' blocks run
    # in order
    base = rs_base(3, 2)
    for dss in (blowup_full(base), concat([base, rs_base(4, 3), base]), filenode_blowup(base)):
        end = 0
        for part, hosts, col in dss.repair_rule.copies:
            assert col == end
            for pos, (node, at) in hosts.items():
                if node[0] == "file":  # a file node holds the copy's B unit rows
                    placed = dss.node_gens[pos].segments[at : at + part.file_len]
                    assert placed == [(col + r, [1]) for r in range(part.file_len)]
                    continue
                placed = dss.node_gens[pos].segments[at : at + part.alpha_symbols]
                own = part.node_gens[node[1]].segments
                assert [start for start, _ in placed] == [col + start for start, _ in own]
                assert all(p is o for (_, p), (_, o) in zip(placed, own))
            end += part.file_len
        assert end == dss.file_len


def test_iterate_twice_stores_its_nonzeros_in_segments():
    # 8,640 rows of 5,760 columns: 49,766,400 entries dense, 11,520 rendered
    dss = iterate(rs_base(3, 2), 2)
    segments = [seg for g in dss.node_gens for seg in g.segments]
    assert len(segments) == dss.params.n * dss.alpha_symbols == 8640
    assert sum(len(entries) for _, entries in segments) == 11520
    assert sum(len(entries) - entries.count(0) for _, entries in segments) == 11520
    # every row shares one of the three base rows' entries
    assert len({id(entries) for _, entries in segments}) == 3


def test_public_functions_are_the_six_constructions():
    # bench/tracing.py wraps every public function of the module and reads the
    # node_gens of what it returns, so any other public function fails it
    import inspect

    import regencode.constructions as constructions

    public = {
        name
        for name, value in vars(constructions).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == constructions.__name__
    }
    assert public == {
        "blowup_simple", "blowup_full", "iterate", "copy_blowup", "filenode_blowup", "concat"
    }


def test_concat_mismatch_errors():
    with pytest.raises(InputError):
        concat([rs_base(4, 2, GF256), rs_base(3, 2, GF256)])  # epsilon differs
    with pytest.raises(InputError):
        concat([blowup_simple(rs_base(3, 2, GF2)), rs_base(3, 2, GF2)])  # alpha differs
    with pytest.raises(InputError):
        concat([rs_base(3, 2, GF2), rs_base(3, 2, GF256)])  # field differs
    with pytest.raises(InputError):
        concat([])


def test_shape_predict_refuses_an_unknown_construction():
    with pytest.raises(ValueError, match="unknown construction 'unfold'"):
        Shape.predict("unfold", [rs_base(3, 2, GF2)])


def test_copy_blowup_example():
    dss = copy_blowup(rs_base(3, 2, GF2), 1)
    assert dss.params == SystemParams(4, 3, 3)
    assert (dss.alpha_symbols, dss.gamma_symbols, dss.file_len) == (24, 36, 48)
    report = measure_and_compare(dss, declared_point(dss))
    assert report.ok and report.match
    norm = report.measured.normalized()
    pt = perf_p3(SystemParams(4, 3, 3), 1, 1)
    assert (norm.gamma, norm.file_size) == (pt.gamma, pt.file_size)


def test_copy_blowup_range_errors():
    with pytest.raises(RangeError):
        copy_blowup(rs_base(3, 2, GF2), 2)  # l = k rejected
    with pytest.raises(RangeError):
        copy_blowup(rs_base(3, 2, GF2), 0)


def test_filenode_blowup_example():
    dss = filenode_blowup(rs_base(3, 2, GF2))
    assert dss.params == SystemParams(4, 2, 2)
    assert (dss.alpha_symbols, dss.gamma_symbols, dss.file_len) == (30, 36, 48)
    report = measure_and_compare(dss, declared_point(dss))
    assert report.ok and report.match
    norm = report.measured.normalized()
    pt = perf_p4(SystemParams(3, 2, 2), 1)
    assert (norm.gamma, norm.file_size) == (pt.gamma, pt.file_size)
    # the k = d instance lands exactly on the timesharing line
    assert timeshare_bound(SystemParams(4, 2, 2), 1, norm.gamma) == norm.file_size


def test_composed_codes_verify_exhaustively():
    cases = [
        blowup_simple(rs_base(3, 2, GF256)),
        blowup_full(rs_base(3, 2, GF2)),
        copy_blowup(rs_base(3, 2, GF2), 1),
        filenode_blowup(rs_base(3, 2, GF256)),
        concat([rs_base(3, 2, GF16) for _ in range(2)]),
        blowup_simple(blowup_simple(rs_base(2, 1, GF2))),
        concat([blowup_simple(rs_base(3, 2, GF2)) for _ in range(2)]),
        blowup_simple(concat([rs_base(3, 2, GF2) for _ in range(2)])),
        # its parts rebuild lost file nodes by overdetermined decodes, where a
        # repair map taken from unit forms would be inconsistent
        blowup_simple(filenode_blowup(blowup_full(rs_base(2, 1, GF256)))),
    ]
    for dss in cases:
        report = measure_and_compare(dss, declared_point(dss))
        assert report.ok and report.match, dss.label
        assert report.mode == {"kind": "exhaustive"}


@pytest.mark.parametrize(
    "recipe",
    [
        "blowup_simple(base(3,2))",
        "blowup_full(base(3,2))",
        "copy_blowup(base(4,3),1)",
        "filenode_blowup(base(4,3))",
        "concat(base(4,3),base(3,2))",
        "iterate(base(2,1),2)",
        "blowup_simple(filenode_blowup(blowup_full(base(2,1))))",
    ],
)
def test_batched_element_repair_agrees_with_the_forms_route(recipe):
    # copies share one part repair per (part, lost node, part helpers): element
    # copies as rows, a column per copy, and form copies once per column shift.
    # Twins, file nodes and lost files are among the routes these recipes
    # take; the last recipe's lost file nodes decode overdetermined systems,
    # where a repair map taken from unit forms would be inconsistent
    dss = parse_recipe(recipe)
    rnd = random.Random(recipe)
    contents = encode(dss, [rnd.randrange(256) for _ in range(dss.file_len)])
    forms = [g.segments for g in dss.node_gens]
    n, d = dss.params.n, dss.params.d
    for failed in range(n):
        for helpers in combinations([i for i in range(n) if i != failed], d):
            rebuilt, bw = repair(dss, failed, helpers, contents)
            assert rebuilt == contents[failed], (recipe, failed, helpers)
            [(by_forms, forms_bw)] = dss.repair_rule.execute(dss, (failed,), helpers, forms)
            assert by_forms == dss.node_gens[failed].segments, (recipe, failed, helpers)
            assert bw.per_helper == forms_bw.per_helper, (recipe, failed, helpers)


def _rule_steps(monkeypatch):
    """What the MDS rule does, live: "build" a tableau, "pivot", or a dss solve's width.

    Only pivots on the tableaux dss builds count: the verifier's walk
    pivots tableaux of its own.
    """
    steps, built = [], []
    tableau, pivot, solve = dss_module._Tableau, gf_module._Tableau.pivot, dss_module.mat_solve

    def build(*a):
        steps.append("build")
        built.append(tableau(*a))
        return built[-1]

    def counted(t, *a):
        if t in built:  # by identity: a tableau defines no __eq__
            steps.append("pivot")
        return pivot(t, *a)

    monkeypatch.setattr(dss_module, "_Tableau", build)
    monkeypatch.setattr(gf_module._Tableau, "pivot", counted)
    monkeypatch.setattr(dss_module, "mat_solve", lambda A, b: steps.append(A.cols) or solve(A, b))
    return steps


def test_nested_repair_solves_each_distinct_system_once(monkeypatch):
    # 1,728 part repairs of 3 distinct 2 x 2 systems: the top level makes 4
    # groups and hands each its copies as rows, a column per copy; the nested
    # level runs its copies' rows concatenated, so the base rule runs 12 times
    # (as forms keyed by column shift, the batches would run it 72 times).
    # The rule builds its tableau once, on nodes 0 and 1, and solves
    # nothing; no run meets the helper set of the run before it, and any
    # two of the 2-subsets of 3 nodes differ by one node: one pivot a run
    dss = iterate(rs_base(3, 2), 2)
    contents = encode(dss, [i % 256 for i in range(dss.file_len)])
    runs = []
    execute = dss_module.MdsReencodeRule.execute
    steps = _rule_steps(monkeypatch)
    monkeypatch.setattr(
        dss_module.MdsReencodeRule, "execute", lambda *a: runs.append(1) or execute(*a)
    )
    rebuilt, bw = repair(dss, 0, (1, 2, 3, 4), contents)
    assert rebuilt == contents[0]
    assert bw.per_helper == {h: 864 for h in (1, 2, 3, 4)}
    assert steps == ["build"] + ["pivot"] * 12
    assert len(runs) == 12


def test_lost_file_nodes_decode_once_per_shared_system(monkeypatch):
    # the 20 repair proofs are 10 helper sets, each for the 2 failed nodes
    # outside it. The copies whose file node is lost are judged by the
    # proof's own walk of the base's nodes, so no system is solved (40
    # solves, 3 wide, when the proof decoded forms); the part repairs are
    # judged once per (lost part node, chosen part helpers), 4 runs of the
    # base's rule where there were 40: it builds its tableau once, on nodes
    # 0..2, and each later run pivots one node in
    steps = _rule_steps(monkeypatch)
    runs = []
    execute = dss_module.MdsReencodeRule.execute
    monkeypatch.setattr(
        dss_module.MdsReencodeRule, "execute", lambda *a: runs.append(a[2:4]) or execute(*a)
    )
    report = measure_and_compare(filenode_blowup(rs_base(4, 3)))
    assert report.ok and report.checks_run == {"reconstruction": 10, "repair": 20, "total": 30}
    assert Counter(steps) == {"build": 1, "pivot": 3}
    assert runs == [((3,), (0, 1, 2)), ((2,), (0, 1, 3)), ((1,), (0, 2, 3)), ((0,), (1, 2, 3))]


def test_file_node_downloads_run_once_per_shift(monkeypatch):
    # a copy that computes part node u from a file node among the helpers
    # rebuilds u's placed rows by placement, so the proof multiplies nothing
    # (4 products a helper set when it ran them on forms); the public repair
    # still computes them from the file node's symbols, one per part node
    products = []
    product = constructions_module.apply_generator
    monkeypatch.setattr(
        constructions_module, "apply_generator", lambda *a: products.append(1) or product(*a)
    )
    code = filenode_blowup(rs_base(4, 3))
    report = measure_and_compare(code)
    assert report.ok and report.checks_run["repair"] == 20
    assert products == []
    contents = encode(code, [i % 256 for i in range(code.file_len)])
    assert repair(code, 0, (1, 2, 3), contents)[0] == contents[0]
    assert len(products) == 4


def test_nested_reconstruct_eliminates_each_distinct_block_once(monkeypatch):
    # nodes (0, 1, 2, 4) leave the 2,880 copies of base(3,2) reading 4
    # distinct sets of its nodes: one elimination a set, the copies' symbols
    # stacked as rows, a column per copy
    dss = iterate(rs_base(3, 2), 2)
    message = [i * 7 % 256 for i in range(dss.file_len)]
    contents = encode(dss, message)
    calls = []
    eliminate = gf_module._eliminate
    monkeypatch.setattr(gf_module, "_eliminate", lambda *a: calls.append(1) or eliminate(*a))
    assert reconstruct(dss, (0, 1, 2, 4), contents) == message
    assert len(calls) <= 4


def test_nested_encode_and_reconstruct_cost_their_segments():
    # encode walks each stored row's segment and builds no product matrix;
    # the reconstruct's eliminations are pinned by the test above. The
    # first read renders the generators from the copy table, about 0.8 MB
    # traced, once: they are read before the trace, as the build placed them.
    # The reconstruct decodes the symbols as elements, gathered per leaf
    # group as the copies are walked in batches: about 0.4 MB traced (the
    # bound is that plus 25 %), 0.85 MB when each leaf copy kept its own
    # list of reads, 1.85 MB when each symbol read and each one decoded
    # was a (0, [v]) segment
    dss = iterate(rs_base(3, 2), 2)
    message = [i * 7 % 256 for i in range(dss.file_len)]
    dss.node_gens
    contents, peak = _traced(lambda: encode(dss, message))
    assert peak < 300_000
    decoded, peak = _traced(lambda: reconstruct(dss, (0, 1, 2, 4), contents))
    assert decoded == message
    assert peak < 500_000


def _traced(run):
    """run's result and the peak tracemalloc saw while it ran, in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_composite_decodes_eliminate_each_distinct_block_once(monkeypatch):
    # per 3-subset, the 120 copies of blowup_full(base(3,2)) that do not read
    # their file node hold 2,880 copies of base(3,2) reading 4 distinct sets
    # of its nodes: the 10 reconstructs eliminate at most 40 systems, where
    # the stacked solve eliminated 70 distinct blocks, and each node's
    # repair, its copies' file nodes among them, is exact from every helper set
    dss = filenode_blowup(blowup_full(rs_base(3, 2)), budget=10**12)
    rnd = random.Random(19)
    message = [rnd.randrange(256) for _ in range(dss.file_len)]
    contents = encode(dss, message)
    n, k, d = dss.params.n, dss.params.k, dss.params.d
    calls = []
    eliminate = gf_module._eliminate
    monkeypatch.setattr(gf_module, "_eliminate", lambda *a: calls.append(1) or eliminate(*a))
    for subset in combinations(range(n), k):
        assert reconstruct(dss, subset, contents) == message, subset
    assert len(calls) <= 70
    for failed in range(n):
        for helpers in combinations([i for i in range(n) if i != failed], d):
            rebuilt, _ = repair(dss, failed, helpers, contents)
            assert rebuilt == contents[failed], (failed, helpers)


def test_shape_rules_agree_with_tradeoff_without_building():
    cases = 0
    for n in range(3, 9):
        for k in range(1, n):
            base = rs_base(n, k)
            p1 = perf_p1(SystemParams(n + 1, k + 1, k + 1), 1, k)
            expected = [("blowup_simple", None, p1), ("blowup_full", None, p1)]
            expected += [
                ("copy_blowup", l, perf_p3(SystemParams(n + l, k + l, k + l), 1, l))
                for l in range(1, k)
                if l <= (k + l - 1) // 2
            ]
            expected.append(("filenode_blowup", None, perf_p4(SystemParams(n, k, k), 1)))
            for name, arg, pt in expected:
                shape = Shape.predict(name, [base], arg, budget=10**100)
                norm = (
                    F(shape.gamma_symbols, shape.alpha_symbols),
                    F(shape.file_len, shape.alpha_symbols),
                )
                assert norm == (pt.gamma, pt.file_size), (name, n, k, arg)
                cases += 1
    assert cases == 137


def test_stacks_split_into_the_leaf_copies_column_blocks():
    """Every k-subset stack of a twice-composed code splits along its leaf copies.

    Each rs_base(3,2) copy holds its file in its own two columns. The blocks
    come in column order: a copy's two columns, or each alone where no row
    of the stack touches both. Each row lands once, in the block holding its
    nonzeros.
    """
    dss = blowup_full(blowup_simple(rs_base(3, 2)))
    for subset in combinations(range(dss.params.n), dss.params.k):
        rows = [row for i in subset for row in dss.node_gens[i].data]
        expected = []
        for c in range(0, dss.file_len, 2):
            joined = any(row[c] and row[c + 1] for row in rows)
            expected += [(c, c + 2)] if joined else [(c, c + 1), (c + 1, c + 2)]
        spans, placed = [], []
        stack = FieldMatrix(dss.field, rows)
        for lo, hi, tile in test_gf.tiles(stack.segments, stack.cols):
            spans.append((lo, hi))
            for r in tile:  # the row's nonzeros all lie in its block
                assert any(rows[r][lo:hi]) and not any(rows[r][:lo] + rows[r][hi:])
                placed.append(r)
        assert spans == expected and sorted(placed) == list(range(len(rows)))
