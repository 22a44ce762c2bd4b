"""List the lines of src/qtvd that the Tier-1 suite never runs.

Usage, from anywhere in a checkout:

    python3 tools/line_reach.py [PYTEST_ARG ...]

runs the Tier-1 suite (`pytest -q --continue-on-collection-errors` and any
extra arguments, in this process, from the root of the checkout) with a
plugin that records, through `sys.settrace`, every line run in a module
under src/qtvd.  It then prints each executable line that never ran, as
`path:line: source`, and the total.  A line is executable when a code
object compiled from the module lists it in `co_lines`, so the count
needs no coverage package.  Only the main thread is traced (the suite
starts no other), and lines run only in a child process are not seen.
Tracing slows the suite about six times; the tool is not part of Tier-1.

Exit status: pytest's own.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qtvd"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some code object compiled from `path` runs instructions on."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module's first instruction is on line 0
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineRecorder:
    """A pytest plugin that records the lines run in `paths` from `pytest_configure` to `pytest_unconfigure`.

    `start` and `stop` may also be called directly; `stop` restores the trace function `start` found.
    """

    def __init__(self, paths):
        self.hits = {str(Path(p).resolve()): set() for p in paths}
        self._previous = None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename in self.hits else None  # by compiled, absolute name

    def start(self) -> None:
        self._previous = sys.gettrace()
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self._previous)

    def pytest_configure(self, config):
        self.start()

    def pytest_unconfigure(self, config):
        self.stop()

    def unreached(self) -> list[tuple[str, int]]:
        """(path, line) of every executable line that did not run, in path and line order."""
        return [(path, line) for path in sorted(self.hits)
                for line in sorted(executable_lines(Path(path)) - self.hits[path])]


def main(argv=None) -> int:
    os.chdir(ROOT)  # pyproject.toml puts src/ on the path and names tests/
    recorder = LineRecorder(sorted(PACKAGE.glob("*.py")))
    status = pytest.main(["-q", "--continue-on-collection-errors", *(sys.argv[1:] if argv is None else argv)],
                         plugins=[recorder])
    missed = recorder.unreached()
    for path, line in missed:
        source = Path(path).read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{Path(path).relative_to(ROOT)}:{line}: {source}")
    print(f"{len(missed)} executable lines of src/qtvd never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
