"""Every ```python block of README.md runs as written, so a documented
example that uses a removed name or a changed signature fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def python_blocks():
    """(line of the opening fence, source) for each python block."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(1))
        for match in BLOCK.finditer(text)
    ]


BLOCKS = python_blocks()


def test_readme_has_python_examples():
    assert BLOCKS


# Ids count the blocks, so editing README prose above one keeps its id.
@pytest.mark.parametrize(
    "line, source", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)]
)
def test_python_block_runs(line, source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # whatever an example writes lands here
    exec(compile(source, f"README.md:{line}", "exec"), {"__name__": "readme"})
