"""The README's library example runs as written and does what its comments say."""

import re
from pathlib import Path

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
