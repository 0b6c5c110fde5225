"""Line reach of the Tier-1 suite: every executable line of src/hetcat runs
in it, or the line is part of a raise of KernelInvariantError.

Usage, from the repository root: python .github/check_reach.py [PYTEST ARGS]

The tracer starts before pytest does, so it sees hetcat imported by
tests/conftest.py, module-level and def lines included. On Python 3.12
sys.monitoring reports each line once and then switches it off, which costs
little; older versions fall back to sys.settrace, which costs two to three
times the untraced run. Traced, the acceptance time gates can miss their
bounds, so this script reads line hits only: the test outcome belongs to the
untraced Tier-1 run. Tests that run hetcat in a subprocess are not seen.

The allowlist is derived, not written: the lines of each `raise
KernelInvariantError(...)` and of each bare `raise` inside an `except
KernelInvariantError` handler. Those are the kernel's checks of its own
results, reached only by a kernel that is wrong. Every other unreached line
is printed as file:line and the script exits 1.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hetcat"
PREFIX = str(SRC)


def _executable(code) -> set[int]:
    """The lines of a code object and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def _names_kernel_error(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "KernelInvariantError"


def _kernel_raises(tree) -> set[int]:
    """The lines of every raise of KernelInvariantError in a module."""
    raises = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and _names_kernel_error(node.type):
            raises += [r for r in ast.walk(node) if isinstance(r, ast.Raise) and r.exc is None]
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and _names_kernel_error(node.exc.func):
            raises.append(node)
    return {line for r in raises for line in range(r.lineno, r.end_lineno + 1)}


def _start(hits: set[tuple[str, int]]) -> None:
    """Record each (file, line) of src/hetcat that runs into hits."""
    if hasattr(sys, "monitoring"):
        mon = sys.monitoring
        tool = mon.COVERAGE_ID

        def on_line(code, line):
            if code.co_filename.startswith(PREFIX):
                hits.add((code.co_filename, line))
            return mon.DISABLE

        mon.use_tool_id(tool, "check_reach")
        mon.register_callback(tool, mon.events.LINE, on_line)
        mon.set_events(tool, mon.events.LINE)
        return

    def on_line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(PREFIX) else None

    sys.settrace(on_call)


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    hits: set[tuple[str, int]] = set()
    _start(hits)
    status = pytest.main(["-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors", *args])
    sys.settrace(None)
    unreached = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        missing = _executable(compile(text, str(path), "exec")) \
            - _kernel_raises(ast.parse(text)) - {line for f, line in hits if f == str(path)}
        unreached += [f"{path.relative_to(ROOT)}:{line}" for line in sorted(missing)]
    print(f"pytest exited {int(status)} (not a gate here); "
          f"{len(unreached)} unreached src/hetcat lines outside KernelInvariantError raises")
    for line in unreached:
        print(f"unreached: {line}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
