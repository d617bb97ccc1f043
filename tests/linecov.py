"""The lines of ``src/i2gatp`` that no tier-1 test runs.

Run from anywhere, with any extra pytest arguments after the script:

    python tests/linecov.py

It runs the tier-1 suite (pytest over the configured testpaths) in this
process under a ``sys.settrace`` line tracer that follows only frames of
``src/i2gatp``, then prints every executable line that no test ran.  It
exits 1 unless those lines are exactly the ones ``ALLOWED`` lists.  Test
results are not judged, only lines: a test that times itself may fail
under the tracer.  A traced run takes a few times as long as an untraced
one, so the tool is not part of tier-1, and pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "i2gatp"

# The lines left unreached on purpose, as (file in src/i2gatp, the line's
# text without its indentation, or None for every line of the file)
ALLOWED = {
    # only a big-endian host swaps the bytes of the packed draws, so that
    # they read as on a little-endian one (docs/prng.md)
    ("numeric.py", "words.byteswap()"),
    # runs only as `python -m i2gatp`, which the CLI tests start in a
    # subprocess, where no tracer follows
    ("__main__.py", None),
}


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` at which some bytecode instruction starts."""

    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest with ``args`` under the tracer: its exit code, and the
    lines each file of the package ran."""

    ran: dict[Path, set[int]] = {}
    # co_filename -> the line tracer of its file, or None outside the package
    tracers: dict[str, object] = {}

    def tracer_of(filename: str):
        path = Path(os.path.realpath(filename))
        if path.parent != PACKAGE:
            return None
        lines = ran.setdefault(path, set())

        def trace_lines(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_of(filename)
        return tracers[filename]

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
    return int(code), ran


def main(args: list[str]) -> int:
    code, ran = run_traced(args)
    # 1 only says that some test failed
    if code not in (0, 1):
        print(f"linecov: pytest exited {code}; lines are not judged", file=sys.stderr)
        return code
    unreached: set[tuple[str, str | None]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            text = source[line - 1].strip()
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            unreached.add((path.name, None) if (path.name, None) in ALLOWED else (path.name, text))
    for name, text in sorted(unreached - ALLOWED, key=str):
        print(f"linecov: {name}: unreached and not allowed: {text}")
    for name, text in sorted(ALLOWED - unreached, key=str):
        print(f"linecov: {name}: allowed but reached: {text if text is not None else 'the whole file'}")
    return 0 if unreached == ALLOWED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
