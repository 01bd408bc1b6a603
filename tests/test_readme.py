"""
The Python blocks of README.md run as written.

Core claims, for each fenced `python` block of README.md, run as a script
in a temporary directory with this source tree first on `PYTHONPATH`:
    - it exits 0 and writes nothing to stderr
    - it prints one line per top-level `print` call, and a `print` line with
      a trailing comment prints the comment's value: the whole comment, or
      its text before the first comma (`17/49`, `2113 4096 128`)
"""

import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
# A fence may be indented (a block inside a list item); its closing fence
# has the same indent.
BLOCKS = [
    textwrap.dedent(match.group(2))
    for match in re.finditer(r"^( *)```python\n(.*?)^\1```$", README.read_text(encoding="utf-8"), re.M | re.S)
]
PRINT = re.compile(r"^print\(.*\)(?:\s+#\s*(?P<comment>.*))?$")


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_block_prints_its_comments(block, tmp_path, child_env):
    result = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, capture_output=True, text=True,
        env=child_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    comments = [m.group("comment") for m in map(PRINT.match, block.splitlines()) if m]
    lines = result.stdout.splitlines()
    assert len(lines) == len(comments)
    for line, comment in zip(lines, comments):
        if comment is not None:
            assert line in (comment, comment.split(",")[0])
