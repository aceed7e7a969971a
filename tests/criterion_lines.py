"""The acceptance suite's ``criterion N:`` lines as a checked-in listing.

``criteria.txt`` holds the eleven lines that ``test_acceptance.py`` prints,
criterion 1's without its wall time, after the ``#`` lines of
``replay_outputs.environment()``.  Each criterion test compares its line
with the listing where the environment matches the listing's header, so a
change that is meant to be bit for bit cannot move a printed value.  The
listing holds only where it was made, since numpy's kernels may round
differently on another CPU or another version.  A change that means to
change a value regenerates the listing in the same commit:

    PYTHONPATH=src python tests/criterion_lines.py > criteria.new
    mv criteria.new tests/criteria.txt

This runs the acceptance suite (about a minute) and prints the listing.
pytest does not collect this file.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from replay_outputs import environment, read_listing

LISTING = Path(__file__).with_name("criteria.txt")
CRITERIA = 11
_WALL = re.compile(r", \d+s <= \d+s\)$")  # criterion 1's wall time and its bound


def listed(line: str) -> str:
    """``line`` as the listing holds it: without a wall time."""
    return _WALL.sub(")", line)


def check(line: str) -> str | None:
    """Why the listing does not hold the printed criterion ``line``, or
    None if it does or was made on another machine."""
    header, saved = read_listing(LISTING)
    if header != environment():
        print(f"(not compared with {LISTING.name}, which was made on another machine)")
        return None
    number = line.split(":", 1)[0] + ":"
    expect = [x.rstrip("\n") for x in saved if x.startswith(number)]
    if expect != [listed(line)]:
        return f"{LISTING.name} lists {expect}, this checkout printed {listed(line)!r}"
    return None


def main() -> int:
    suite = Path(__file__).with_name("test_acceptance.py")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-s", "-q", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
        cwd=suite.parents[1],
    )
    lines = [listed(x) + "\n" for x in run.stdout.splitlines() if x.startswith("criterion ")]
    sys.stdout.writelines(environment() + lines)
    if len(lines) != CRITERIA:
        print(f"printed {len(lines)} criterion lines, not {CRITERIA}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
