"""Size counts of `src/varifoldlab`, per module and in total.

Usage, from anywhere in a checkout:

    python tests/src_counts.py

For each module it prints the counted lines (non-blank lines that are not a
``#`` comment; docstring lines count), the same rule as

    cat src/varifoldlab/*.py | grep -v '^\\s*$' | grep -v '^\\s*#' | wc -l

and the public module-level functions (``def`` at column 0 with a name not
starting with ``_``), then the totals of both.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "varifoldlab"


def counts(path: Path) -> tuple[int, int]:
    """(counted lines, public module-level functions) of one module."""
    lines = path.read_text().splitlines()
    counted = sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))
    public = sum(1 for line in lines if re.match(r"def [^_\W]", line))
    return counted, public


def main() -> None:
    total_lines = total_public = 0
    print(f"{'module':<24} {'lines':>6} {'public':>6}")
    for path in sorted(SRC.glob("*.py")):
        lines, public = counts(path)
        total_lines += lines
        total_public += public
        print(f"{path.name:<24} {lines:>6} {public:>6}")
    print(f"{'total':<24} {total_lines:>6} {total_public:>6}")


if __name__ == "__main__":
    main()
