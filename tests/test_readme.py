"""The README's library examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    # each ```python block continues the one before it, as a reader runs them
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
