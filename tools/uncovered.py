"""Lines of the package that no tier-1 test runs, per module.

    python3 tools/uncovered.py

Runs the tier-1 suite (``tests/``, as ROADMAP.md's tier-1 command does, with
pytest's cache plugin off) in this process under ``sys.settrace`` and
``threading.settrace``, and prints, for each module of ``src/robust_oco``,
the lines inside its functions that no test executed, then the total.
Lines that run when a module is imported (module and class bodies) are left
out: every import runs them. Tracing makes the suite two to three times
slower, so a timing gate may fail under it; the listing is the output, and
the exit code is 0 whatever pytest reports. It imports the package from
``src/`` beside this file and needs only the standard library and the test
dependencies.
"""

from __future__ import annotations

import inspect
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "robust_oco"


def function_lines(code) -> set[int]:
    """The lines of code's nested function bodies: every code object that makes new locals.

    A function's first instruction (RESUME, at its def or first decorator
    line) raises no line event, so its line counts only if a later
    instruction carries it too.
    """
    lines = set()
    if code.co_flags & inspect.CO_NEWLOCALS:
        entries = [(start, line) for start, _, line in code.co_lines() if line is not None]
        lines |= {line for start, line in entries if start > 0}
        lines |= {line for start, line in entries if start == 0} - {code.co_firstlineno}
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= function_lines(const)
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs: 3-5, 9."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    modules = sorted(PACKAGE.rglob("*.py"))
    hits = {str(path): set() for path in modules}

    def local_tracer(lines):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    tracers = {path: local_tracer(lines) for path, lines in hits.items()}

    def global_tracer(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    threading.settrace(global_tracer)
    sys.settrace(global_tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    print(f"lines inside functions of {PACKAGE.relative_to(ROOT)} that no test ran:")
    for path in modules:
        code = compile(path.read_text(), str(path), "exec")
        missed = sorted(function_lines(code) - hits[str(path)])
        total += len(missed)
        print(f"{path.relative_to(PACKAGE)}: {ranges(missed) if missed else 'none'}")
    print(f"total: {total} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
