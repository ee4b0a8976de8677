import gc
import json
import random
import weakref
from itertools import combinations
from pathlib import Path

import pytest

import regencode.dss as dss_module
import regencode.gf as gf_module
from regencode.constructions import blowup_full, copy_blowup, iterate
from regencode.dss import (
    InputError,
    LinearDss,
    MdsReencodeRule,
    encode,
    reconstruct,
    repair,
    rs_base,
    to_json,
    to_json_dict,
)
from regencode.gf import GF2, GF16, GF256, FieldMatrix, FieldSpec
from regencode.tradeoff import SystemParams

GOLDEN = Path(__file__).parent / "golden"


def lagrange_codeword(field, points, message):
    """Independent oracle: interpolate through the systematic points, then
    evaluate the polynomial at every point."""
    k = len(message)
    xs = points[:k]
    coeffs = [0] * k
    for i, (xi, yi) in enumerate(zip(xs, message)):
        # basis polynomial prod_{j != i} (x - xj) / (xi - xj)
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [0] * (len(basis) + 1)
            for t, c in enumerate(basis):
                new[t + 1] ^= c
                new[t] ^= field.mul(c, xj)
            basis = new
            denom = field.mul(denom, field.add(xi, xj))
        scale = field.mul(yi, field.inv(denom))
        for t, c in enumerate(basis):
            coeffs[t] ^= field.mul(scale, c)
    out = []
    for x in points:
        acc = 0
        for c in reversed(coeffs):
            acc = field.add(field.mul(acc, x), c)
        out.append(acc)
    return out


def test_xor_base_encode():
    dss = rs_base(3, 2, GF2)
    assert encode(dss, [1, 0]) == [[1], [0], [1]]
    assert encode(dss, [1, 1]) == [[1], [1], [0]]
    assert encode(dss, [0, 0]) == [[0], [0], [0]]


def test_encode_length_check():
    dss = rs_base(3, 2, GF2)
    with pytest.raises(InputError):
        encode(dss, [1])


def test_encode_refuses_symbols_outside_the_field():
    dss = rs_base(3, 2, GF256)
    for bad in (256, -1, 1.0, [1, 0]):  # 1.0 == 1, but it cannot index the log table
        with pytest.raises(InputError):
            encode(dss, [bad, 0])
    with pytest.raises(InputError):
        encode(dss, [1.0, 2])


def test_rs_base_matches_polynomial_evaluation():
    rnd = random.Random(0)
    dss = rs_base(4, 2, GF256)
    points = [0, 1, 2, 3]
    for _ in range(20):
        msg = [rnd.randrange(256) for _ in range(2)]
        contents = encode(dss, msg)
        expected = lagrange_codeword(GF256, points, msg)
        assert [c[0] for c in contents] == expected


def test_rs_base_over_gf2_is_the_xor_code():
    dss = rs_base(3, 2, GF2)
    assert [g.data for g in dss.node_gens] == [[[1, 0]], [[0, 1]], [[1, 1]]]


def test_rs_base_field_too_small():
    with pytest.raises(InputError):
        rs_base(4, 2, GF2)  # GF(2) supports at most 3 nodes
    with pytest.raises(InputError):
        rs_base(3, 3, GF256)  # k = n


def test_rs_base_over_gf65536_holds_more_nodes_than_gf256():
    # 260 nodes need more than GF(256)'s 257 points: its build inverts a
    # 4 x 4 block, and each reconstruct and repair eliminates, in 16-bit lanes
    field = FieldSpec(16, 0x1100B)
    with pytest.raises(InputError):
        rs_base(260, 4, GF256)
    dss = rs_base(260, 4, field)
    rnd = random.Random(260)
    message = [rnd.randrange(field.order) for _ in range(4)]
    contents = encode(dss, message)
    assert [c[0] for c in contents] == lagrange_codeword(field, list(range(260)), message)
    subset = tuple(rnd.sample(range(260), 4))
    assert reconstruct(dss, subset, contents) == message
    failed = rnd.randrange(260)
    helpers = rnd.sample([i for i in range(260) if i != failed], 4)
    rebuilt, bandwidth = repair(dss, failed, helpers, contents)
    assert rebuilt == contents[failed]
    assert bandwidth.per_helper == dict.fromkeys(sorted(helpers), 1)


def test_rs_base_msr_bandwidth():
    dss = rs_base(4, 3, GF256)
    msg = [5, 6, 7]
    contents = encode(dss, msg)
    rebuilt, bw = repair(dss, 0, (1, 2, 3), contents)
    assert rebuilt == contents[0]
    assert bw.total == 3  # d*B/(k(d-k+1)) = 3 symbols


def test_reconstruct_example_2_1():
    dss = rs_base(3, 2, GF2)
    contents = encode(dss, [1, 1])
    assert reconstruct(dss, (0, 2), contents) == [1, 1]  # from x and x+y
    assert reconstruct(dss, (0, 1), contents) == [1, 1]  # systematic read-off


def test_reconstruct_all_subsets_rs52():
    rnd = random.Random(1)
    dss = rs_base(5, 2, GF256)
    msg = [rnd.randrange(256) for _ in range(2)]
    contents = encode(dss, msg)
    subsets = list(combinations(range(5), 2))
    assert len(subsets) == 10
    for subset in subsets:
        assert reconstruct(dss, subset, contents) == msg


def test_reconstruct_input_errors():
    dss = rs_base(3, 2, GF2)
    contents = encode(dss, [1, 0])
    with pytest.raises(InputError):
        reconstruct(dss, (0,), contents)
    with pytest.raises(InputError):
        reconstruct(dss, (0, 3), contents)
    with pytest.raises(InputError):
        reconstruct(dss, (0, 0), contents)
    # each of these would fail with a TypeError: a subset that is no
    # collection, an index that does not hash, contents that are no list
    with pytest.raises(InputError):
        reconstruct(dss, 5, contents)
    with pytest.raises(InputError):
        reconstruct(dss, (0, [1]), contents)
    with pytest.raises(InputError):
        reconstruct(dss, (0, 1), 5)


def test_reconstruct_refuses_malformed_contents():
    # a negative symbol would index the log table from its end
    with pytest.raises(InputError):
        reconstruct(rs_base(4, 2), (2, 3), [[0], [0], [-1], [3]])
    with pytest.raises(InputError):
        reconstruct(rs_base(4, 2), (2, 3), [[0], [0], [256], [3]])
    # a missing node: InputError, not IndexError
    dss = blowup_full(rs_base(3, 2))
    contents = encode(dss, list(range(dss.file_len)))
    with pytest.raises(InputError):
        reconstruct(dss, (0, 1, 2), contents[:2])
    # each of these would fail later with a TypeError: a content that is no
    # list, a float symbol, elements mixed with rows of forms (either one
    # first), a float index
    base = rs_base(4, 2)
    with pytest.raises(InputError):
        reconstruct(base, (0, 1), [5, [1], [2], [3]])
    with pytest.raises(InputError):
        reconstruct(base, (0, 1), [[1.0], [2], [3], [4]])
    forms = [g.data for g in base.node_gens]
    for mixed in ([[1]] + forms[1:], forms[:1] + [[1]] * 3):
        with pytest.raises(InputError):
            reconstruct(base, (0, 1), mixed)
    with pytest.raises(InputError):
        reconstruct(base, (0, 1.0), [[0], [1], [2], [3]])
    # contents are field elements only: rows of forms, of equal widths or
    # not, are refused; forms are repaired by the rule's execute
    ragged = [forms[0], [forms[1][0][:1]]] + forms[2:]
    for rows in (forms, ragged):
        with pytest.raises(InputError):
            reconstruct(base, (0, 1), rows)
        with pytest.raises(InputError):
            repair(base, 2, (0, 1), rows)


def test_repair_example_2_1():
    dss = rs_base(3, 2, GF2)
    contents = encode(dss, [1, 0])
    rebuilt, bw = repair(dss, 2, (0, 1), contents)
    assert rebuilt == [1]  # x + y
    assert bw.per_helper == {0: 1, 1: 1}
    assert bw.total == 2


def test_repair_zero_instance_same_bandwidth():
    dss = rs_base(3, 2, GF2)
    zero = encode(dss, [0, 0])
    rebuilt, bw = repair(dss, 2, (0, 1), zero)
    assert rebuilt == [0]
    assert bw.total == 2


def test_repair_input_errors():
    dss = rs_base(3, 2, GF2)
    contents = encode(dss, [1, 0])
    with pytest.raises(InputError):
        repair(dss, 2, (0,), contents)
    with pytest.raises(InputError):
        repair(dss, 2, (0, 2), contents)
    # checked before they are sorted: a helper that does not compare with
    # the others, or does not hash, and helpers that are no collection
    big = rs_base(4, 3)
    big_contents = encode(big, [1, 0, 1])
    with pytest.raises(InputError):
        repair(big, 0, [1, "2", 3], big_contents)
    with pytest.raises(InputError):
        repair(big, 0, [1, [2], 3], big_contents)
    with pytest.raises(InputError):
        repair(dss, 2, 5, contents)
    with pytest.raises(InputError):
        repair(dss, 2, (0, 1), None)


def test_repair_refuses_malformed_contents():
    dss = copy_blowup(rs_base(3, 2), 1)
    contents = encode(dss, list(range(dss.file_len)))
    # a helper one symbol short would rebuild a node one symbol short
    with pytest.raises(InputError):
        repair(dss, 3, (0, 1, 2), [contents[0][:-1]] + contents[1:])
    with pytest.raises(InputError):
        repair(dss, 3, (0, 1, 2), [[-1] + contents[0][1:]] + contents[1:])
    with pytest.raises(InputError):
        repair(dss, 3, (0, 1, 2), contents[:3])
    with pytest.raises(InputError):
        repair(dss, 3, (0, 1, 2), [tuple(contents[0])] + contents[1:])
    with pytest.raises(InputError):
        repair(dss, 3, (0, 1, 2), [[1.0] + contents[0][1:]] + contents[1:])
    forms = [g.data for g in dss.node_gens]
    with pytest.raises(InputError):
        repair(dss, 3, (0, 1, 2), [contents[0]] + forms[1:])
    with pytest.raises(InputError):
        repair(dss, 3, (0, 1.0, 2), contents)
    with pytest.raises(InputError):
        repair(dss, 3.0, (0, 1, 2), contents)


def test_public_calls_check_contents_once(monkeypatch):
    # nested copies repair from slices of contents the top call has checked
    dss = iterate(rs_base(2, 1), 2)
    message = list(range(dss.file_len))
    contents = encode(dss, message)
    reads = []
    read = dss_module._read
    monkeypatch.setattr(dss_module, "_read", lambda *args: reads.append(args[1]) or read(*args))
    rebuilt, _ = repair(dss, 0, (1, 2, 3), contents)
    assert rebuilt == contents[0] and reads == [(1, 2, 3)]
    assert reconstruct(dss, (1, 2, 3), contents) == message
    assert reads == [(1, 2, 3)] * 2


def test_repair_exhaustive_rs52():
    rnd = random.Random(2)
    dss = rs_base(5, 2, GF256)
    msg = [rnd.randrange(256) for _ in range(2)]
    contents = encode(dss, msg)
    pairs = 0
    for failed in range(5):
        for helpers in combinations([i for i in range(5) if i != failed], 2):
            rebuilt, bw = repair(dss, failed, helpers, contents)
            assert rebuilt == contents[failed]
            assert bw.total == 2
            pairs += 1
    assert pairs == 30


def test_mds_rule_reuses_a_decoder_only_for_its_own_code_and_helpers(monkeypatch):
    # a second code shares the rule object, with node 0's generator scaled
    # by 3: the first code's tableau, or its positions for helpers (0, 1),
    # would rebuild it wrong
    base = rs_base(4, 2, GF256)
    scaled = [GF256.mul(3, x) for x in base.node_gens[0].data[0]]
    gens = [FieldMatrix(GF256, [scaled])] + base.node_gens[1:]
    other = LinearDss(base.params, GF256, 2, gens, base.repair_rule, "scaled", 2)
    counted, runs = [], []
    tableau, pivot, built = dss_module._Tableau, gf_module._Tableau.pivot, []

    def build(*a):
        counted.append(0)
        built.append(tableau(*a))
        return built[-1]

    def pivoted(t, *a):
        if t in built:  # the rule's tableaux only, by identity: a tableau defines no __eq__
            counted.append(1)
        return pivot(t, *a)

    monkeypatch.setattr(dss_module, "_Tableau", build)
    monkeypatch.setattr(gf_module._Tableau, "pivot", pivoted)
    monkeypatch.setattr(dss_module, "mat_solve", None)  # the rule solves no system
    for code, helpers in [(base, (0, 1)), (base, (0, 1)), (other, (0, 1)), (other, (0, 1)),
                          (other, (1, 2)), (base, (0, 1))]:
        contents = encode(code, [7, 9])
        counted.clear()
        rebuilt, _ = repair(code, 3, helpers, contents)
        assert rebuilt == contents[3], (code.label, helpers)
        runs.append((counted.count(0), counted.count(1)))
    # the rule keeps one tableau per code: the first repair of each code
    # builds its own, whose basis is nodes 0 and 1, so (0, 1) moves nothing;
    # (1, 2) pivots node 2 in for node 0 of other's basis, and base, met
    # again, still holds its own tableau at (0, 1)
    assert runs == [(1, 0), (0, 0), (1, 0), (0, 0), (0, 1), (0, 0)]


def test_a_repaired_mds_code_is_freed_at_its_last_reference():
    # the rule keys its bases by code weakly: no cycle code -> rule -> code
    # for the cyclic collector to find, and a dead code's basis goes with
    # it, never reused by a code that shares its rule
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = rs_base(5, 3)
        rule = code.repair_rule
        contents = encode(code, [1, 2, 3])
        assert repair(code, 4, (0, 1, 2), contents)[0] == contents[4]
        ref = weakref.ref(code)
        del code
        assert ref() is None and not rule._bases
        base = rs_base(5, 3)
        scaled = [GF256.mul(3, x) for x in base.node_gens[4].data[0]]
        gens = base.node_gens[:4] + [FieldMatrix(GF256, [scaled])]
        other = LinearDss(base.params, GF256, 3, gens, rule, "scaled", 3)
        contents = encode(other, [1, 2, 3])
        assert repair(other, 4, (0, 1, 2), contents)[0] == contents[4]
    finally:
        if enabled:
            gc.enable()


def test_extended_point_at_infinity():
    # n = 2^m + 1 uses the projective point; the code is still MDS
    dss = rs_base(5, 2, FieldSpec(2, 0b111))
    msg = [3, 1]
    contents = encode(dss, msg)
    for subset in combinations(range(5), 2):
        assert reconstruct(dss, subset, contents) == msg


def test_uniform_alpha_enforced():
    from regencode.gf import FieldMatrix

    gens = [
        FieldMatrix(GF2, [[1, 0]]),
        FieldMatrix(GF2, [[0, 1], [1, 1]]),
        FieldMatrix(GF2, [[1, 1]]),
    ]
    from regencode.dss import CodeInvariantError

    with pytest.raises(CodeInvariantError):
        LinearDss(SystemParams(3, 2, 2), GF2, 2, gens, MdsReencodeRule(), "bad", 2)


@pytest.mark.parametrize(
    "gens",
    [
        [FieldMatrix(GF2, [[1, 0]]), FieldMatrix(GF2, [[0, 1]])],  # two generators for n = 3
        [FieldMatrix(GF2, [[1, 0]]), FieldMatrix(GF2, [[0, 1]]), FieldMatrix(GF2, [[1, 1, 0]])],
        [FieldMatrix(GF2, [[1, 0]]), FieldMatrix(GF2, [[0, 1]]), FieldMatrix(GF16, [[1, 1]])],
        None,  # only a composite's copy table renders its generators
    ],
    ids=["count", "shape", "field", "none"],
)
def test_linear_dss_refuses_mismatched_generators(gens):
    with pytest.raises(InputError):
        LinearDss(SystemParams(3, 2, 2), GF2, 2, gens, MdsReencodeRule(), "bad", 2)


def test_json_serialization_stable():
    dss = rs_base(3, 2, GF2)
    doc = to_json(dss)
    assert doc == to_json(rs_base(3, 2, GF2))
    data = json.loads(doc)
    assert data["params"] == {"n": 3, "k": 2, "d": 2}
    assert data["field"] == {"m": 1, "modulus": 3}
    assert data["node_gens"] == [[[1, 0]], [[0, 1]], [[1, 1]]]
    assert data["repair_rule"] == {"kind": "mds_reencode"}


def test_json_golden_blowup_simple():
    from regencode.constructions import blowup_simple

    dss = blowup_simple(rs_base(3, 2, GF2))
    expected = (GOLDEN / "blowup_simple_322.json").read_text()
    assert to_json(dss) == expected


def test_json_golden_concat():
    from regencode.constructions import concat

    dss = concat([rs_base(3, 2, GF2)] * 3)
    expected = (GOLDEN / "concat_322x3.json").read_text()
    assert to_json(dss) == expected


def test_to_json_dict_roundtrips_through_json():
    dss = rs_base(4, 2, GF16)
    doc = to_json_dict(dss)
    assert json.loads(json.dumps(doc)) == doc
