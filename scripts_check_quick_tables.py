"""Check that the quick-profile tables still match EXPERIMENTS.md.

Runs ``scripts_run_experiments.py --quick`` and compares its output with
the "Quick profile" block of EXPERIMENTS.md. Only the ``### done eXX in``
timing lines and trailing blank lines are ignored; any other difference
is printed as a unified diff and the script exits 1.

Usage::

    PYTHONPATH=src python scripts_check_quick_tables.py
"""

import difflib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
TIMING = re.compile(r"^### done e\d\d in ")


def comparable(text: str) -> list:
    """``text``'s lines without timing lines and trailing blank lines."""
    lines = [line for line in text.split("\n") if not TIMING.match(line)]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def pinned_quick_block() -> str:
    """The fenced block under EXPERIMENTS.md's "## Quick profile"."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("\n## Quick profile\n", 1)[1]
    return section.split("```text\n", 1)[1].split("```", 1)[0]


def main() -> int:
    fresh = subprocess.run(
        [sys.executable, str(ROOT / "scripts_run_experiments.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    diff = list(
        difflib.unified_diff(
            comparable(pinned_quick_block()),
            comparable(fresh),
            "EXPERIMENTS.md (Quick profile)",
            "scripts_run_experiments.py --quick",
            lineterm="",
        )
    )
    if diff:
        print("\n".join(diff))
        print("quick tables differ from EXPERIMENTS.md", file=sys.stderr)
        return 1
    print("quick tables match EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
