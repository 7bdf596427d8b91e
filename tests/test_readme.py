"""The library example in README.md runs and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # a print whose line ends in a comment shows the value it prints first
    promised = re.findall(r"^print\(.*\)\s+# ([\w-]+)", blocks[0], re.M)
    assert promised == ["10", "criterion-satisfied"]
    assert out.getvalue().splitlines()[: len(promised)] == promised
