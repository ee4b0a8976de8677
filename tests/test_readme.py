"""The README's library example and forms one-liner run as written and do what it says."""

import re
from pathlib import Path

import pytest

from regencode import InputError, blowup_full, rs_base

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_as_documented():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    example = blocks[0]
    scope = {}
    exec(compile(example, str(README), "exec"), scope)
    report, code, contents = scope["report"], scope["code"], scope["contents"]
    assert report.ok and report.symmetric
    assert "alpha=18, gamma=36, B=48" in example
    assert (code.alpha_symbols, code.gamma_symbols, code.file_len) == (18, 36, 48)
    # the public calls take and return field elements
    assert scope["rebuilt"] == contents[0]
    assert scope["bandwidth"].total == 36


def test_readme_forms_one_liner_runs_on_a_base_and_is_refused_on_a_composite():
    # the rule run on the generators' segments proves a code without
    # copies; a composite's rule takes no forms
    [one_liner] = re.findall(r"`(code\.repair_rule\.execute\(.*?\)\[0\])`", README.read_text())
    base = rs_base(5, 3)
    rebuilt, bandwidth = eval(one_liner, {"code": base, "failed": 0, "helpers": [4, 1, 2]})
    assert rebuilt == base.node_gens[0].segments
    assert bandwidth.per_helper == {1: 1, 2: 1, 4: 1}
    composite = blowup_full(rs_base(3, 2))
    with pytest.raises(InputError, match="not forms"):
        eval(one_liner, {"code": composite, "failed": 0, "helpers": [1, 2, 3]})
