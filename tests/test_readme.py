"""The README's library quick start runs as documented: each ```python block
under "Library quick start" executes, and each print whose comment gives
its output prints exactly that."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
_PRINT = re.compile(r"print\(.*\)\s+# (.*)")


def _quick_start_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_quick_start_prints_what_its_comments_say():
    blocks = _quick_start_blocks()
    assert len(blocks) == 2
    documented = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        printed = out.getvalue().splitlines()
        assert len(printed) == len(prints)
        for line, output in zip(prints, printed):
            match = _PRINT.fullmatch(line)
            if match:
                assert output == match[1], line
                documented.append(output)
    assert documented == ["True", "[[0, 1], [1, 0]]", "a^2 (mod 5)"]
