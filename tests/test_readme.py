"""The README's library tour runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a tour line that prints, and the output its trailing comment promises
_PRINT_LINE = re.compile(r"^print\(.*\)\s+# (.+)$")


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_tour_prints_its_comments():
    source = _tour()
    expected = [m.group(1) for m in map(_PRINT_LINE.match, source.splitlines()) if m]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(expected)
    for got, want in zip(lines, expected):
        if want.endswith("…"):
            assert got.startswith(want[:-1]), (got, want)
        else:
            assert got == want, (got, want)
