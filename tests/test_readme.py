"""Every ```python block of README.md runs as written against the library."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks() -> list:
    """(line of the first code line, code) per block, as pytest params named
    by the block's order, so an edit above a block does not rename its test."""
    text = README.read_text()
    found = [(text.count("\n", 0, m.start(1)), m.group(1)) for m in FENCE.finditer(text)]
    return [pytest.param(line, code, id=f"block-{i}") for i, (line, code) in enumerate(found)]


def test_readme_has_python_blocks():
    assert len(_blocks()) >= 2


@pytest.mark.parametrize("line, code", _blocks())
def test_readme_block_runs(line, code, capsys):
    # a block's code keeps its README line numbers in any traceback
    exec(compile("\n" * line + code, str(README), "exec"), {"__name__": f"readme_line_{line}"})
    assert capsys.readouterr().out
