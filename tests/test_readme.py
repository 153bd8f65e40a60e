"""The README's quickstart block runs as written, so the docs cannot
name an engine, module or argument the library no longer has."""

from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quickstart_block() -> str:
    """The first ``python`` block under the "Quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Quickstart"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_runs(capsys):
    code = quickstart_block()
    assert "ArrayEngine" in code
    namespace = {"__name__": "readme_quickstart"}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["result"].report.rounds > 0
    assert "rounds" in capsys.readouterr().out
