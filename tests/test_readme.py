"""README.md's Python examples run as written, so a change to the API they
use fails here rather than in a reader's session."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    """The bodies of the fenced ```python blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_python_blocks_run():
    # one namespace, in order, as a reader would run them in one session
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_every_fence_is_found():
    # a block the pattern misses would go unrun
    text = README.read_text(encoding="utf-8")
    assert len(python_blocks(text)) == text.count("```python")
