"""Seeded random-recipe sweep: a differential oracle for the code layer.

Recipes up to depth 3 over small bases are drawn with random.Random and
admitted by a small budget. Every recipe must build to the Shape its
recipe predicts, parse to the same JSON twice and verify exhaustively at
its declared point. One digest over every recipe's JSON and every public
repair of encoded contents (each must rebuild the failed node's content;
the digest takes that node's generator rows, dense, and the per-helper
transfers) pins the whole sweep: a change to any repair route, helper
choice or transfer changes it.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations

from regencode.cli import parse_recipe
from regencode.constructions import Shape
from regencode.dss import InputError, ResourceError, encode, repair, rs_base, to_json_dict
from regencode.tradeoff import OperatingPoint, RangeError
from regencode.verifier import measure_and_compare

SEED = 4
RECIPES = 30
BUDGET = 2 * 10**5
BASES = [(n, k) for n in range(2, 5) for k in range(1, n)]
NAMES = ["blowup_simple", "blowup_full", "copy_blowup", "filenode_blowup", "iterate", "concat"]
SWEEP_DIGEST = "8f52c378f6b9463b4de1a5f8f6a8c41ce83260df0dfcdfc4e020f00525fbd205"


def draw(rnd: random.Random, depth: int, top: bool = False) -> tuple[str, Shape]:
    """A recipe of at most `depth` nested constructions and its predicted Shape.

    A top-level draw is a construction, not a bare base. Raises what
    Shape.predict raises for a recipe the budget or a range refuses.
    """
    if depth == 0 or (not top and rnd.random() < 0.4):
        n, k = rnd.choice(BASES)
        return f"base({n},{k})", rs_base(n, k)  # a code serves as its own Shape
    name = rnd.choice(NAMES)
    if name == "concat":
        first = draw(rnd, depth - 1)
        parts = [first]
        key = (first[1].params.epsilon, first[1].params.delta, first[1].alpha_symbols)
        for _ in range(rnd.choice([1, 2])):
            other = draw(rnd, depth - 1)
            same = (other[1].params.epsilon, other[1].params.delta, other[1].alpha_symbols)
            parts.append(other if same == key else first)
        text = f"concat({','.join(t for t, _ in parts)})"
        return text, Shape.predict(name, [s for _, s in parts], budget=BUDGET)
    inner, shape = draw(rnd, depth - 1)
    arg = None
    if name == "copy_blowup":
        arg = rnd.randint(1, max(1, shape.params.k - 1))  # predict refuses l = 1 at k = 1
    elif name == "iterate":
        arg = 1
    suffix = "" if arg is None else f",{arg}"
    return f"{name}({inner}{suffix})", Shape.predict(name, [shape], arg, budget=BUDGET)


def recipes() -> dict[str, Shape]:
    """RECIPES distinct recipes, in the order drawn, each with its predicted Shape."""
    rnd = random.Random(SEED)
    out = {}
    while len(out) < RECIPES:
        try:
            text, shape = draw(rnd, 3, top=True)
        except (ResourceError, RangeError, InputError):
            continue  # refused: draw another
        out.setdefault(text, shape)
    return out


def test_random_recipes_build_verify_and_repair_as_recorded():
    digest = hashlib.sha256()
    drawn = recipes()
    assert {name for text in drawn for name in NAMES if f"{name}(" in text} == set(NAMES)
    for text, predicted in drawn.items():
        code = parse_recipe(text, budget=BUDGET)
        built = (code.params, code.alpha_symbols, code.file_len, code.gamma_symbols)
        assert tuple(predicted) == built, text
        # compact: the same JSON as to_json, without the indentation that
        # keeps json off its C encoder
        as_json = json.dumps(to_json_dict(code), sort_keys=True)
        again = json.dumps(to_json_dict(parse_recipe(text, budget=BUDGET)), sort_keys=True)
        assert again == as_json, text
        point = OperatingPoint(F(code.alpha_symbols), F(code.gamma_symbols), F(code.file_len))
        report = measure_and_compare(code, point)
        assert report.mode == {"kind": "exhaustive"}, text
        assert report.ok and report.match, text

        digest.update(as_json.encode())
        n, d, rnd = code.params.n, code.params.d, random.Random(text)
        contents = encode(code, [rnd.randrange(code.field.order) for _ in range(code.file_len)])
        for failed in range(n):
            rows = code.node_gens[failed].data
            for helpers in combinations([i for i in range(n) if i != failed], d):
                rebuilt, bandwidth = repair(code, failed, helpers, contents)
                assert rebuilt == contents[failed], (text, failed, helpers)
                digest.update(repr((failed, helpers, rows, bandwidth.per_helper)).encode())
    assert digest.hexdigest() == SWEEP_DIGEST
