"""Check that the experiment tables still match EXPERIMENTS.md.

Runs ``python -m repro.analysis`` (the quick profile) and compares its
output with the "Quick profile" block of EXPERIMENTS.md; with
``--full``, runs ``python -m repro.analysis --full`` and compares it
with the "Full profile" block instead. Only the ``### done eXX in``
timing lines (``repro.analysis.cli.TIMING_LINE``) and trailing blank
lines are ignored; any other difference is printed as a unified diff
and the script exits 1.

Usage::

    PYTHONPATH=src python scripts_check_quick_tables.py
    PYTHONPATH=src python scripts_check_quick_tables.py --full
"""

import argparse
import difflib
import subprocess
import sys
from pathlib import Path

from repro.analysis.cli import TIMING_LINE

ROOT = Path(__file__).resolve().parent


def comparable(text: str) -> list:
    """``text``'s lines without timing lines and trailing blank lines."""
    lines = [line for line in text.split("\n") if not TIMING_LINE.match(line)]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def pinned_block(heading: str) -> str:
    """The fenced block under EXPERIMENTS.md's ``## <heading>``."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split("```text\n", 1)[1].split("```", 1)[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="check the full profile instead of the quick one",
    )
    full = parser.parse_args().full
    profile = "full" if full else "quick"
    flags = ["--full"] if full else []
    fresh = subprocess.run(
        [sys.executable, "-m", "repro.analysis", *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    heading = f"{profile.capitalize()} profile"
    diff = list(
        difflib.unified_diff(
            comparable(pinned_block(heading)),
            comparable(fresh),
            f"EXPERIMENTS.md ({heading})",
            " ".join(["python -m repro.analysis", *flags]),
            lineterm="",
        )
    )
    if diff:
        print("\n".join(diff))
        print(f"{profile} tables differ from EXPERIMENTS.md", file=sys.stderr)
        return 1
    print(f"{profile} tables match EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
