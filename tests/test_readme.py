"""The ``python`` blocks of ``README.md`` run in order, in one namespace,
and every ``print(...)`` line that ends in a ``# text`` comment prints
lines that begin with that text."""

import io
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
_EXPECTED = re.compile(r"^\s*print\(.*\)\s+#\s*(.*?)\s*$")


def python_blocks(text: str) -> list[tuple[int, str]]:
    """(line number of its first line, source) of each ``python`` block."""
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in _BLOCK.finditer(text)]


def test_readme_code_runs_and_prints_what_its_comments_say():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    printed: dict[int, list[str]] = {}

    def recording_print(*args, **kwargs):
        out = io.StringIO()
        print(*args, **kwargs, file=out)
        printed.setdefault(sys._getframe(1).f_lineno, []).append(out.getvalue())

    namespace = {"__name__": "readme", "print": recording_print}
    expected = {}
    for first, source in blocks:
        # padded so that a traceback and each print name the README's line
        exec(compile("\n" * (first - 1) + source, str(README), "exec"), namespace)
        for number, line in enumerate(source.splitlines(), first):
            match = _EXPECTED.match(line)
            if match:
                expected[number] = match.group(1)
    assert len(blocks) >= 3 and expected
    for number, text in expected.items():
        assert printed.get(number), f"README.md:{number} printed nothing"
        for out in printed[number]:
            assert out.startswith(text), f"README.md:{number} printed {out!r}, not {text!r}..."
