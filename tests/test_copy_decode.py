"""Composites decode through their copy table; the stacked per-tile solve is the oracle.

A composite decodes the symbols in their own shape, elements or rows,
through its copy table walked in batches (constructions._CopiesRule.solve):
a copy that reads its file node takes that slice of them, and the copies
reading equal part nodes share one decode of their symbols gathered as
rows, a column per copy. The oracle is the decode this replaced: the
subset's generator segments stacked and solved one column block at a
time (test_gf.per_tile_solve). Both must give equal messages, or both
raise CodeInvariantError, on elements and rows, on sound codes and on
seeded corruptions of the generators (a leaf code's, composed again, so
the copy table and the generators agree) and of the symbols read. A
decode refuses forms, a composite's and a base's alike. A public
reconstruct that fails in a part's decode names the subset it was given.
"""

import random
from itertools import combinations

import pytest
import test_gf
import test_sweep
import test_verifier
from regencode.cli import parse_recipe
from regencode.constructions import (
    blowup_full,
    blowup_simple,
    concat,
    copy_blowup,
    filenode_blowup,
    iterate,
)
from regencode.dss import (
    CodeInvariantError,
    InputError,
    LinearDss,
    _as_matrix,
    _decode,
    _shaped,
    encode,
    reconstruct,
    rs_base,
)
from regencode.gf import GF2, FieldMatrix, SingularMatrixError, _matrix


def _stacked_decode(code, subset, symbols):
    """The oracle: the subset's generators stacked and solved tile by tile, shaped as _decode's."""
    rhs = _as_matrix(code.field, symbols)
    stack = [segment for i in subset for segment in code.node_gens[i].segments]
    try:
        x = test_gf.per_tile_solve(_matrix(code.field, code.file_len, stack), rhs)
        return _shaped(x, symbols)
    except SingularMatrixError:
        return CodeInvariantError


def _decoded(code, subset, symbols):
    try:
        return _decode(code, subset, symbols)
    except CodeInvariantError:
        return CodeInvariantError


def _corrupted_base(base, rnd):
    """base with one node's row zeroed or set to a scaled copy of another node's row."""
    rows = [g.data[0] for g in base.node_gens]
    i, j = rnd.sample(range(base.params.n), 2)
    scale = rnd.choice([0, rnd.randrange(1, base.field.order)])
    rows[i] = [base.field.mul(scale, x) for x in rows[j]]
    gens = [FieldMatrix(base.field, [row]) for row in rows]
    return LinearDss(
        base.params, base.field, base.file_len, gens, base.repair_rule,
        base.label + "/corrupted", base.gamma_symbols,
    )


def _symbols(code, subset, rnd):
    """Per shape, the symbols of subset's nodes: elements of one seeded message, rows of two."""
    field, file_len = code.field, code.file_len
    messages = [[rnd.randrange(field.order) for _ in range(file_len)] for _ in range(2)]
    contents = [encode(code, message) for message in messages]
    elements = [s for i in subset for s in contents[0][i]]
    rows = [[a, b] for a, b in zip(elements, (s for i in subset for s in contents[1][i]))]
    return {"elements": elements, "rows": rows}


def _disturbed(symbols, rnd):
    """symbols with one of them changed: an element or a row entry XORed."""
    out, t = list(symbols), rnd.randrange(len(symbols))
    symbol, flip = out[t], rnd.randrange(1, 256)
    if type(symbol) is int:
        out[t] = symbol ^ flip
    else:
        out[t] = [symbol[0] ^ flip, symbol[1]]
    return out


def _codes():
    rnd = random.Random(2800)
    codes = [parse_recipe(text, budget=test_sweep.BUDGET) for text in test_sweep.recipes()]
    codes += [
        copy_blowup(rs_base(4, 3), 1),  # twins
        filenode_blowup(blowup_full(rs_base(3, 2)), budget=10**12),  # a file node over a composite
        concat([rs_base(3, 2), rs_base(4, 3), rs_base(3, 2)]),
        blowup_full(_corrupted_base(rs_base(3, 2), rnd)),
        copy_blowup(_corrupted_base(rs_base(4, 3), rnd), 1),
        filenode_blowup(blowup_simple(_corrupted_base(rs_base(3, 2), rnd))),
        concat([rs_base(4, 2), _corrupted_base(rs_base(4, 2), rnd)]),
    ]
    return codes


def test_copy_table_decode_agrees_with_the_stacked_per_tile_solve():
    rnd = random.Random(28)
    seen = set()
    for code in _codes():
        subsets = list(combinations(range(code.params.n), code.params.k))
        for subset in rnd.sample(subsets, min(4, len(subsets))):
            for shape, symbols in _symbols(code, subset, rnd).items():
                for case in (symbols, _disturbed(symbols, rnd)):
                    outcome = _decoded(code, subset, case)
                    assert outcome == _stacked_decode(code, subset, case), (code, subset, shape)
                    seen.add((shape, outcome is CodeInvariantError))
    shapes = ("elements", "rows")
    assert seen == {(shape, fails) for shape in shapes for fails in (False, True)}


def test_nested_decodes_agree_with_the_stacked_per_tile_solve():
    # copies walked in batches two levels down: the sound base's copies
    # under iterate, and a corrupted leaf under two blowups, whose groups
    # reading its faulty nodes do not decode
    rnd = random.Random(35)
    codes = [
        iterate(rs_base(3, 2), 2),
        blowup_simple(blowup_full(_corrupted_base(rs_base(3, 2), rnd))),
    ]
    seen = set()
    for code in codes:
        subsets = list(combinations(range(code.params.n), code.params.k))
        for subset in rnd.sample(subsets, 3):
            symbols = _symbols(code, subset, rnd)
            for shape in ("elements", "rows"):
                for case in (symbols[shape], _disturbed(symbols[shape], rnd)):
                    outcome = _decoded(code, subset, case)
                    assert outcome == _stacked_decode(code, subset, case), (code, subset, shape)
                    seen.add((code.label, outcome is CodeInvariantError))
    sound, corrupted = (code.label for code in codes)
    assert seen >= {(sound, False), (sound, True), (corrupted, True)}


def test_a_failing_part_decode_names_the_callers_subset():
    # node 0 of the base is zeroed: nodes (0, 1, 2) leave copies of it reading
    # only its nodes 0 and 1, whose decode fails on the part's own subset
    code = blowup_full(test_verifier.corrupt_generator(rs_base(3, 2, GF2), 0))
    contents = encode(code, [1] * code.file_len)
    with pytest.raises(CodeInvariantError) as caught:
        reconstruct(code, (0, 1, 2), contents)
    assert str(caught.value) == (
        "subset (0, 1, 2) does not determine the file: coefficient matrix is rank deficient"
    )


def test_a_decode_refuses_forms():
    # forms are for proving codes without copies; a decode takes elements
    # or rows, of a composite or of a base, and refuses forms before solving
    for code in (blowup_full(rs_base(3, 2)), rs_base(3, 2)):
        subset = tuple(range(code.params.k))
        forms = [s for i in subset for s in code.node_gens[i].segments]
        with pytest.raises(InputError, match="not forms"):
            _decode(code, subset, forms)
