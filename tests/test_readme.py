"""The README's library quickstart runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_prints_its_commented_outputs():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S)
    want = [line.split("# ", 1)[1].split(",")[0]
            for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
    assert len(want) == 4
