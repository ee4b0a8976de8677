"""A composite's generators are rendered from its copy table, and only when read.

A composite stores its copy table alone (constructions._compose). Its
node_gens are rendered from the table on first read and kept
(_CopiesRule._render): encode, to_json and a file-node route over a
composite part read them. The generators rendered must be those _compose
placed when it stored every row, byte for byte in to_json; the table
paths, the build, both proofs, reconstruct and repair, must render none.
"""

import hashlib
from itertools import combinations

import pytest

import test_shift_batches
import test_sweep
from regencode.cli import parse_recipe
from regencode.constructions import _CopiesRule, blowup_full, filenode_blowup, iterate
from regencode.dss import encode, reconstruct, repair, rs_base, to_json
from regencode.verifier import measure_and_compare

# sha256 of to_json(code), taken when _compose placed every generator row,
# for the sweep's recipes (under its budget) and the ladder rows the
# default budget admits. iterate(base(3,2),2)'s JSON holds 49,766,400
# dense entries, over 3 GB as one string, so its digest is streamed
NESTED = "iterate(base(3,2),2)"
RENDERED = {
    "blowup_full(base(4,3))": (
        "919f2d8842f44b46d6cdbb32129b43e4431957d084c4e4126fae11d78661dca3"
    ),
    "copy_blowup(base(3,2),1)": (
        "4fb5686f84639a8378639d5e31fb19320b570bbd0575fc3275c52f8a92ca6fa8"
    ),
    "iterate(base(4,1),1)": (
        "36b7c71eeb98d297ed8f0d231dd7e1c7ed6dc3239edcfb21ff1504d2625b0a41"
    ),
    "blowup_full(base(3,2))": (
        "910e21f16b95276e6e0efddf0575418be149d9e6fe70d4ac905da4159d5cae9f"
    ),
    "blowup_simple(base(4,1))": (
        "7d31d911602e510ec56221ddb0ab215198a7e6cd9a154d62544da88f15324cd4"
    ),
    "iterate(base(4,2),1)": (
        "73ef10bb01b2bc884063fe43dee98cb5bbfd7cb6121b1b905fc4532ed634a5be"
    ),
    "blowup_full(base(3,1))": (
        "9c4bce593c33e7bba086f16417cd814e8eb022884013869300e60106ba6957c3"
    ),
    "copy_blowup(blowup_simple(base(2,1)),1)": (
        "806ed469e9236969112b4229cf54e204cb8907b0f07e0cffea1b2a06f42e9a9d"
    ),
    "blowup_simple(base(3,1))": (
        "251fa6899574c5d370b14b527877470de2563a9f131a420180a8570fc52672fb"
    ),
    "filenode_blowup(base(3,2))": (
        "53befda80d1081009016188bb1c7f8f0449f6b562684c72ee5dba7a8101c206e"
    ),
    "filenode_blowup(blowup_full(base(2,1)))": (
        "011455b5371421a0303eb2f870bd25335a4d391696dbb65e458f530fab213a80"
    ),
    "blowup_full(base(2,1))": (
        "f3560702529075305b38fd29c1c1beca1c0d8af95f928edb0739a22a1defbd82"
    ),
    "blowup_simple(iterate(base(2,1),1))": (
        "de8d083eb5243d725cd4678a67a1106917a357f819e0e1bc48a600490f04e599"
    ),
    "filenode_blowup(base(2,1))": (
        "61cbffd7553a40ef0796e7b2900bf9f17caa3300c2f73eb25f8832b0e7cc1294"
    ),
    "copy_blowup(base(4,2),1)": (
        "62c27dddc52cbab3abe34af5135046bd6ef98f51f9d1fb1e66c9955717b0aedb"
    ),
    "iterate(base(3,2),1)": (
        "910e21f16b95276e6e0efddf0575418be149d9e6fe70d4ac905da4159d5cae9f"
    ),
    "filenode_blowup(filenode_blowup(base(2,1)))": (
        "9e14b433b84e99b3d3eebb6f64b3486e3a9df0f0679c38991b61a170a170eb91"
    ),
    "blowup_simple(base(4,3))": (
        "5b85fdc41f8bb7af4f0de8ccc418037e6784e00dce303ad017f6c1bf514bfcde"
    ),
    "copy_blowup(blowup_full(base(2,1)),1)": (
        "e3eef2142cdbee569222711910de082b8104f28b6f30bf1ce2771640ac11c108"
    ),
    "filenode_blowup(base(4,1))": (
        "69de6d341ff9146c9e763b24e7ed7a27c6f0a407a0d4f7fc06df7852b48c7bc4"
    ),
    "blowup_simple(blowup_full(base(3,1)))": (
        "5d785cb3ef1aac33b28c89c9b301c3743948f3c0c4d8d70879e6eab939df490b"
    ),
    "blowup_simple(base(2,1))": (
        "04aa4a4af19f8d316321392a61e46562b63d1b627e454f03e80305502963928a"
    ),
    "iterate(base(4,3),1)": (
        "919f2d8842f44b46d6cdbb32129b43e4431957d084c4e4126fae11d78661dca3"
    ),
    "blowup_simple(base(4,2))": (
        "49c44686f543da19839d85254271bbe2dbb671c3096f24f090fe49546a21c925"
    ),
    "blowup_simple(base(3,2))": (
        "cc82dd3badd8ee01006ab288df9ff889fc57ec0e0852bd942853d83202a44c0b"
    ),
    "concat(base(3,1),base(4,2))": (
        "ff44a3d341d852bf1ee2b1e33260a2402fdde329d85e05850f4977b925b80eec"
    ),
    "concat(blowup_simple(blowup_simple(base(3,1))),blowup_simple(blowup_simple(base(3,1))))": (
        "fefe7141b49a31baf1639915a126f5575aab264583482d0e3fe358e4168d680a"
    ),
    "iterate(base(2,1),1)": (
        "f3560702529075305b38fd29c1c1beca1c0d8af95f928edb0739a22a1defbd82"
    ),
    (
        "concat(concat(copy_blowup(base(3,2),1),copy_blowup(base(3,2),1)),"
        "concat(copy_blowup(base(3,2),1),copy_blowup(base(3,2),1)),"
        "concat(copy_blowup(base(3,2),1),copy_blowup(base(3,2),1)))"
    ): (
        "2757511ff60bec51b7a46b1376c85ec5ba322ac8f68b6a2a6a1cc794cada2f3e"
    ),
    "iterate(base(3,1),1)": (
        "9c4bce593c33e7bba086f16417cd814e8eb022884013869300e60106ba6957c3"
    ),
    "filenode_blowup(base(4,3))": (
        "63558703b079ee3e04202a31ce2350a1d19b2aa348953e5b0de8bd3fac2ca3c1"
    ),
    "blowup_simple(base(10,8))": (
        "bf5e26fd41892019efe70564788f741e33603d621d61e55c4b3329cb9fded1eb"
    ),
    "concat(base(6,3),base(6,3),base(6,3))": (
        "a9290e6c49bcf139f140db8d28d4f538b1691bd621f326d220f26cb3ba34179e"
    ),
    "base(16,12)": (
        "5fb07d9c7f170badc1d0255a280bb65d2b020b7f2d17b0b1995cbfce432092a5"
    ),
    "base(14,7)": (
        "d11bde6f7261fc9438eb61b3376acc5623f84b02917ab6949864162d2ab43223"
    ),
    "iterate(base(3,2),2)": (
        "8d23899819c4889f2bb18e2c8648d081894c9d616321d45d6938d99bf2b4bf3d"
    ),
    "blowup_simple(blowup_full(filenode_blowup(base(2,1))))": (
        "283b44059ffe212b33435e0b34d55a976fc5aa579e07a2135c23c7721a30de48"
    ),
}


def _json_digest(code):
    """sha256 of to_json(code), its dense generator rows streamed from their segments."""

    class Shell:  # the code without its generators
        def __getattr__(self, name):
            return [] if name == "node_gens" else getattr(code, name)

    head, tail = to_json(Shell()).split('"node_gens": []')
    digest = hashlib.sha256(f'{head}"node_gens": ['.encode())
    comma = ",\n" + " " * 8
    for i, g in enumerate(code.node_gens):
        digest.update(b",\n    [" if i else b"\n    [")
        for j, (start, entries) in enumerate(g.segments):
            cells = ["0"] * g.cols
            cells[start : start + len(entries)] = map(str, entries)
            row = "\n      [\n        " + comma.join(cells) + "\n      ]"
            digest.update(("," + row if j else row).encode())
        digest.update(b"\n    ]")
    digest.update(f"\n  ]{tail}".encode())
    return digest.hexdigest()


def test_the_pinned_recipes_are_the_sweep_and_the_default_ladder():
    ladder = [r for r, (budget, _) in test_shift_batches.LADDER.items() if budget is None]
    assert list(RENDERED) == list(dict.fromkeys([*test_sweep.recipes(), *ladder]))


@pytest.mark.parametrize("recipe", list(RENDERED))
def test_rendered_generators_are_those_placed(recipe):
    budget = test_sweep.BUDGET if recipe in test_sweep.recipes() else None
    code = parse_recipe(recipe, budget=budget)
    assert _json_digest(code) == RENDERED[recipe]
    if recipe != NESTED:  # the streamed digest is to_json's
        assert hashlib.sha256(to_json(code).encode()).hexdigest() == RENDERED[recipe]


def _renders(monkeypatch):
    """The codes _CopiesRule._render is called on, as a live list."""
    seen = []
    render = _CopiesRule._render

    def spy(rule, code):
        seen.append(code)
        return render(rule, code)

    monkeypatch.setattr(_CopiesRule, "_render", spy)
    return seen


def test_the_table_paths_render_no_generators(monkeypatch):
    other = iterate(rs_base(3, 2), 2)  # an equal code, rendered to encode
    message = [i * 7 % 256 for i in range(other.file_len)]
    contents = encode(other, message)
    seen = _renders(monkeypatch)
    code = iterate(rs_base(3, 2), 2)
    report = measure_and_compare(code)
    assert report.ok and report.mode == {"kind": "exhaustive"}
    assert reconstruct(code, (0, 1, 2, 4), contents) == message
    for f in range(code.params.n):
        helpers = [i for i in range(code.params.n) if i != f]
        assert repair(code, f, helpers, contents)[0] == contents[f]
    assert seen == []


def test_encode_renders_each_code_once(monkeypatch):
    # the code and its one composite part, blowup_full(base(3,2)), whose
    # rows the code's rows move
    seen = _renders(monkeypatch)
    code = iterate(rs_base(3, 2), 2)
    message = [i * 7 % 256 for i in range(code.file_len)]
    contents = encode(code, message)
    for _ in range(3):
        assert encode(code, message) == contents
    part = code.repair_rule.copies[0][0]
    assert seen == [code, part]
    assert {p for p, _, _ in code.repair_rule.copies} == {part}


def test_a_file_node_route_renders_its_composite_part_once(monkeypatch):
    # a copy that reads its file node checks its part nodes against the
    # file re-encoded, and a file node among the helpers computes a lost
    # part node: both read the part's generators, the code's never
    budget = 10**12
    other = filenode_blowup(blowup_full(rs_base(3, 2)), budget)  # an equal code, rendered
    message = [i * 7 % 256 for i in range(other.file_len)]
    contents = encode(other, message)
    seen = _renders(monkeypatch)
    code = filenode_blowup(blowup_full(rs_base(3, 2)), budget)
    assert measure_and_compare(code).ok and seen == []
    [part] = {p for p, _, _ in code.repair_rule.copies}
    n, k, d = code.params.n, code.params.k, code.params.d
    for subset in combinations(range(n), k):
        assert reconstruct(code, subset, contents) == message, subset
    for f in range(n):
        rebuilt, _ = repair(code, f, [i for i in range(n) if i != f][:d], contents)
        assert rebuilt == contents[f], f
    assert seen == [part]
