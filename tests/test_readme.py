"""README's library example runs as printed and keeps the claims it states."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert block, "README has no library example"
    scope = {}
    exec(compile(block.group(1), "README.md", "exec"), scope)
    assert scope["report"].k_selected == 3
    assert np.linalg.norm(scope["y"] - scope["gen"].x) < 1e-8
