"""Batches of copies, and the table proof against the forms oracle.

A composite hands its parts batches of element copies as rows (a plain
list per symbol, one column per copy), and its copy table refuses forms.
The forms oracle (test_verifier._oracle_execute) runs a composite's rule
on its generator rows as the table once did, each group's form copies
laid out dense side by side over the columns their segments span. With
the stacked-rank sweep it is the proof from the generators that the table
proof (verifier._Proof) must agree with, faulty parts included, and the
element repair must equal its rebuilt rows times the message. A
composite stores only its table, which renders its generators, and a
generator list handed with its rule is refused when the code is built.
"""

import hashlib
import random
from itertools import combinations

import pytest

import regencode.cli as cli
import regencode.verifier as verifier
import test_sweep
from regencode.cli import parse_recipe
from regencode.constructions import (
    _FILE,
    _CopiesRule,
    blowup_full,
    blowup_simple,
    concat,
    copy_blowup,
    filenode_blowup,
)
from regencode.dss import (
    CodeInvariantError,
    LinearDss,
    MdsReencodeRule,
    apply_generator,
    encode,
    repair,
    rs_base,
)
from regencode.gf import FieldMatrix, _matrix
from regencode.verifier import measure_and_compare
from test_verifier import (
    PassThroughRule,
    ZeroedTransferRule,
    _oracle_execute,
    _stacked_sweep,
    _with_rule,
)


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
    so building the code refuses the edited generator list.
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
    """The element repair of each pair equals the forms oracle's rebuilt rows times the message."""
    rnd = random.Random(code.label)
    message = [rnd.randrange(code.field.order) for _ in range(code.file_len)]
    contents = encode(code, message)
    forms = [g.segments for g in code.node_gens]
    for failed, helpers in pairs:
        with monkeypatch.context() as m:
            m.setattr(_CopiesRule, "execute", _oracle_execute)
            [(rows, want)] = code.repair_rule.execute(code, (failed,), helpers, forms)
        rebuilt, got = repair(code, failed, helpers, contents)
        product = apply_generator(_matrix(code.field, code.file_len, rows), message)
        assert rebuilt == product, (code.label, failed, helpers)
        assert got.per_helper == want.per_helper, (code.label, failed, helpers)


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


# (code, corruption, seed); "nested" is blowup_full over a corrupted
# blowup_simple(base(3,2))
CORRUPTED = [
    (recipe, kind, seed)
    for recipe in (
        "blowup_full(base(3,2))",
        "blowup_full(blowup_simple(base(3,2)))",
        "filenode_blowup(base(4,3))",
        "nested",
    )
    for kind in ("zeroed", "swapped")
    for seed in (1, 2)
]


def _corrupted_code(recipe, kind, seed):
    if recipe == "nested":  # the part is corrupted, before the outer table places it
        return blowup_full(_corrupted(parse_recipe("blowup_simple(base(3,2))"), seed, kind))
    return _corrupted(parse_recipe(recipe), seed, kind)


def test_a_composite_is_built_from_its_copy_table_alone():
    # a composite's generators are rendered from its copy table, so a
    # generator list handed with its rule is refused when the code is
    # built: each edited one, and a copy of its own. The rendered list is
    # kept with the code and cannot be edited in place. Faults placed
    # inside parts are proved by the oracle test below
    for case in CORRUPTED:
        with pytest.raises(CodeInvariantError, match="copy table"):
            _corrupted_code(*case)
    code = parse_recipe("blowup_full(base(3,2))")
    with pytest.raises(CodeInvariantError, match="copy table"):
        LinearDss(
            code.params, code.field, code.file_len, list(code.node_gens), code.repair_rule,
            code.label, code.gamma_symbols,
        )
    with pytest.raises(TypeError):
        code.node_gens[0] = code.node_gens[1]
    assert measure_and_compare(code).ok


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


def _oracle_report(monkeypatch, code, seed=0):
    """The report of the proofs the table proof replaced: stacked ranks, forms side by side.

    A composite's rule is wrapped, so the verifier runs it on the forms,
    its copy table as the forms oracle (_oracle_execute).
    """
    if isinstance(code.repair_rule, _CopiesRule):
        code = LinearDss(
            code.params, code.field, code.file_len, code.node_gens,
            PassThroughRule(code.repair_rule), code.label, code.gamma_symbols,
        )
    with monkeypatch.context() as m:
        m.setattr(verifier, "_check_reconstruction", _stacked_sweep)
        m.setattr(_CopiesRule, "execute", _oracle_execute)
        return measure_and_compare(code, seed=seed)


def _dropped(code):
    """code whose rule drops its first helper's transfer, as the CI's three-level step does."""
    return _with_rule(code, ZeroedTransferRule(code.repair_rule))


def _over_dropped_bases(monkeypatch, text):
    """The recipe built over bases that each drop their first helper's transfer (_dropped)."""
    with monkeypatch.context() as m:
        m.setattr(cli, "rs_base", lambda n, k: _dropped(rs_base(n, k)))
        return parse_recipe(text, budget=test_sweep.BUDGET)


def _ci_codes():
    """The CI steps' codes with a fault in a part, the three-level one over base(2,1)."""
    base = rs_base(6, 3)
    rows = [(0, [base.field.mul(3, x) for x in base.node_gens[4].data[0]])]
    twinned = _edited(base, 5, rows)
    yield concat([base, base, twinned]), 5
    yield blowup_simple(_edited(rs_base(10, 8), 0, [(0, [])])), 5
    yield blowup_simple(blowup_full(filenode_blowup(_dropped(rs_base(2, 1))))), 0


def _edited(code, node, rows):
    gens = list(code.node_gens)
    gens[node] = _matrix(code.field, code.file_len, rows)
    return LinearDss(
        code.params, code.field, code.file_len, gens, code.repair_rule, code.label + "/edited",
        code.gamma_symbols,
    )


def test_table_proof_reports_as_the_forms_oracle(monkeypatch):
    # a composite is proved from its copy table: a node set decodes iff
    # every copy decodes its part from what it hosts there, and a repair
    # is judged by its plan's groups, each part repair by the part's own
    # verdict. The oracle proves the code from its generators: the stacked
    # rank of every subset, and the rule run on the generator rows, each
    # group's form copies laid out side by side. The whole report must be
    # equal on every sweep recipe, on each of them built over bases that
    # drop a transfer, on composites over parts with one seeded fault each
    # and on the CI steps' faulty codes
    texts = list(test_sweep.recipes())
    codes = [parse_recipe(text, budget=test_sweep.BUDGET) for text in texts]
    faulty = list(_codes_over_faulty_parts())
    assert len(faulty) == 54
    faulty += [_over_dropped_bases(monkeypatch, text) for text in texts]
    assert len(faulty) == 84
    for code in codes + faulty:
        report = measure_and_compare(code)
        assert report.to_json() == _oracle_report(monkeypatch, code).to_json(), code.label
        assert report.ok != (code in faulty), code.label  # every seeded fault fails its proof
    for code, seed in _ci_codes():
        report = measure_and_compare(code, seed=seed)
        assert not report.ok, code.label
        assert report.to_json() == _oracle_report(monkeypatch, code, seed).to_json(), code.label


# ladder rows -> (budget, sha256 of measure_and_compare's to_json()), taken
# when both proofs read the generators: the forms oracle takes 36 s and
# more on the larger rows, so their reports are pinned instead
LADDER = {
    "blowup_full(base(4,3))": (
        None, "fbe8f86c9d8600ea3ac89dc874a0b5e8d09dea2fce5929a80fc75302c1d91206"
    ),
    "filenode_blowup(base(4,3))": (
        None, "6cf7a6ae99857b74137087f3ea3e40c88c0fed27e2226905315df7ad1caddedf"
    ),
    "blowup_simple(base(10,8))": (
        None, "bd3e66ea5800b36813841dc4cec38c1deb942d24a3f0c955ade0fe9b6659cd0d"
    ),
    "concat(base(6,3),base(6,3),base(6,3))": (
        None, "67c32aa152553a0c48f5b686b80f1bea78ba7dc11101ad4a492f5f81b112933e"
    ),
    "base(16,12)": (
        None, "ac5994ac6a680f0185d8bd5c86644ca4c4c37f22f746c9effada2ae571389a7e"
    ),
    "base(14,7)": (
        None, "8837cde9b9f3e76908cf30a6ae58d4f70e4d98ce2dde72bcd133dedbb321594a"
    ),
    "iterate(base(3,2),2)": (
        None, "645376380b3474fb88b7d0cb54fcffab535e54f8553e67f8cf9d9ca3adfb056a"
    ),
    "blowup_simple(blowup_full(filenode_blowup(base(2,1))))": (
        None, "944125907f1e9651558529997d84675d3344635dd93cdbfd41313111d7d9371b"
    ),
    "filenode_blowup(blowup_full(base(3,2)))": (
        10**12, "af09bebd0aa22c80bf147b92cdbfb75ba8c24593c376ddebe08ab6bbe9ba6083"
    ),
    "blowup_full(filenode_blowup(base(3,2)))": (
        10**12, "6ba7df7b1038e01557bc2ef40da7c64d927ad7ce695c0cc03f859ffed08ebc49"
    ),
    "filenode_blowup(blowup_simple(base(4,1)))": (
        10**12, "c5a3c499b2fe926f264583cdc696ec8b7236fcc9571c8644c1fbb4bee5c5a020"
    ),
    "blowup_full(blowup_full(filenode_blowup(base(2,1))))": (
        10**12, "9774f74b1c3944394624e39f841bfc707338511fb91127b1bd07ba11498ba462"
    ),
    "blowup_simple(blowup_full(filenode_blowup(base(3,2))))": (
        10**12, "fc5876eddacaf164e26e344d5263826cde4c5cf47ed1213112223f3f5eb4cf9f"
    ),
}


@pytest.mark.parametrize("recipe", list(LADDER))
def test_ladder_reports_are_those_proved_from_the_generators(recipe):
    budget, digest = LADDER[recipe]
    report = measure_and_compare(parse_recipe(recipe, budget=budget))
    assert report.ok and report.mode == {"kind": "exhaustive"}
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "recipe, budget, runs",
    [
        # 1,788 runs of the base's rule when each helper set ran its groups
        ("concat(base(6,3),base(6,3),base(6,3))", None, 123),
        # 25,920 when each helper set ran its groups one failed node a call,
        # 41,280 when it ran them for all its failed nodes together
        ("blowup_simple(blowup_full(filenode_blowup(base(3,1))))", 10**12, 12),
    ],
)
def test_each_part_repair_runs_once_per_proof(monkeypatch, recipe, budget, runs):
    # the repair proof judges a part repair by the part's own verdict on
    # (lost part nodes, chosen part helpers), memoized for the whole proof
    seen = []
    execute = MdsReencodeRule.execute

    def spy(rule, part, failed, helpers, contents):
        seen.append((id(part), failed, helpers))
        return execute(rule, part, failed, helpers, contents)

    monkeypatch.setattr(MdsReencodeRule, "execute", spy)
    report = measure_and_compare(parse_recipe(recipe, budget=budget))
    assert report.ok and report.mode == {"kind": "exhaustive"}
    assert len(seen) == len(set(seen)) == runs
