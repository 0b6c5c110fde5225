"""Mutation check: every mutant of the named kernel functions fails Tier-1,
or is listed as equivalent.

Usage, from the repository root:

    python .github/check_mutants.py FUNCTION [FUNCTION ...]

A FUNCTION is the name of a function or method defined anywhere in
src/hetcat, or Class.method for a method that shares its name with others
(Adjunction.__post_init__). The operator catalogue is fixed, one change per
mutant:
- comparison swaps: == and !=, < and >=, > and <=, in and not in, is and
  is not;
- `and` and `or`;
- a dropped `not`;
- `continue` or `break` made `pass`.

The mutants run one at a time in a copy of the repository made under
`tempfile`'s directory (TMPDIR chooses it); the tree itself is never
changed. The copy first runs the unmutated suite, which must pass. Each
mutant then runs the test file of its module with `-x` (tests/test_het.py
for het.py, tests/test_instances.py for a module of instances/), and,
where that passes, the whole of Tier-1 with `-x`; both leave out the tests
named _UNATTAINABLE, and each run times out at TIMEOUT_FACTOR times the
unmutated run. A failing run or a timeout kills the mutant. Both run with
the hypothesis profile "mutants" of tests/conftest.py, which does not
shrink a failing example: the first one kills. The module's
own file comes first because most kills are there, and pytest runs the
files of one command in its own order.

A mutant is keyed by its function and its mutated source text: the first
line of the statement that holds the change, as `ast.unparse` writes it
after the change, and for a `continue` or `break` made `pass` that of the
statement whose body holds it, followed by " continue -> pass" or
" break -> pass". The allowlist, .github/mutants_allowlist.json, lists the
equivalent mutants as {"function", "mutant", "why"} records, the last a
one-line argument. The script prints every mutant's outcome and exits 1 if
a survivor is not on the allowlist, or if a named function does not exist.
"""

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hetcat"
ALLOWLIST = Path(__file__).resolve().parent / "mutants_allowlist.json"
TIMEOUT_FACTOR = 3
SWAPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
         ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _sites(fn):
    """Every (node, operator index) the catalogue mutates, in `ast.walk` order."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            yield from ((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, ast.BoolOp) or isinstance(node, (ast.Continue, ast.Break)) or \
                isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, 0


def _parents(fn):
    return {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}


def _replace(parent, node, new):
    for field, value in ast.iter_fields(parent):
        if value is node:
            setattr(parent, field, new)
        elif isinstance(value, list) and node in value:
            value[value.index(node)] = new


def _mutate(fn, k):
    """Apply the k-th mutation to fn in place; return its key text."""
    node, i = list(_sites(fn))[k]
    parents = _parents(fn)
    if isinstance(node, (ast.Continue, ast.Break)):
        _replace(parents[node], node, ast.Pass())
        jump = "continue" if isinstance(node, ast.Continue) else "break"
        return ast.unparse(parents[node]).splitlines()[0] + f" {jump} -> pass"
    holder = node
    while not isinstance(holder, ast.stmt):
        holder = parents[holder]
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    else:
        _replace(parents[node], node, node.operand)
    return ast.unparse(holder).splitlines()[0]


def _defs(tree, name):
    """The functions of tree called name: a function or method anywhere, or
    for Class.method, the method in the body of the class."""
    owner, _, fname = name.rpartition(".")
    nodes = (n for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == owner
             for n in c.body) if owner else ast.walk(tree)
    return [n for n in nodes if isinstance(n, FUNCTIONS) and n.name == fname]


def _find(name):
    """(module path, source text) of the one src/hetcat function called name."""
    found = [(path, text) for path in sorted(SRC.rglob("*.py"))
             for text in [path.read_text()] for _ in _defs(ast.parse(text), name)]
    if len(found) != 1:
        raise SystemExit(f"{name}: {len(found)} definitions in src/hetcat, expected 1")
    return found[0]


def _function(tree, name):
    return _defs(tree, name)[0]


def _own_tests(rel):
    """The test file of the module at rel, relative to ROOT: tests/test_<module>.py,
    else tests/test_<package>.py; None where neither exists."""
    paths = [Path("tests") / f"test_{stem}.py" for stem in (rel.stem, rel.parent.name)]
    return next((path for path in paths if (ROOT / path).exists()), None)


def mutants(name):
    """Each mutant of the function: (key, module path relative to ROOT, mutated text)."""
    path, text = _find(name)
    lines = text.splitlines(keepends=True)
    out = []
    for k in range(len(list(_sites(_function(ast.parse(text), name))))):
        fn = _function(ast.parse(text), name)
        first = min([fn.lineno] + [d.lineno for d in fn.decorator_list]) - 1
        key = _mutate(fn, k)
        body = "".join(" " * fn.col_offset + line + "\n"
                       for line in ast.unparse(fn).splitlines())
        out.append((key, path.relative_to(ROOT),
                    "".join(lines[:first]) + body + "".join(lines[fn.end_lineno:])))
    return out


def _copy(into: Path) -> Path:
    return Path(shutil.copytree(ROOT, into / "repo", ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis")))


def _tier1(copy: Path, timeout=None, *tests):
    """(passed, seconds, timed out) of Tier-1 in the copy, or of the named
    test files alone."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-profile", "mutants", "-k", "not _UNATTAINABLE", *map(str, tests)]
    start = time.perf_counter()
    try:
        status = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, True
    return status == 0, time.perf_counter() - start, False


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("functions", nargs="+")
    args = parser.parse_args(argv)
    allowed = {(e["function"], e["mutant"]) for e in json.loads(ALLOWLIST.read_text())}
    work = [(name, *m) for name in args.functions for m in mutants(name)]
    start = time.perf_counter()
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = _copy(Path(scratch))
        passed, seconds, _ = _tier1(copy)
        if not passed:
            print(f"the unmutated suite fails in its copy ({seconds:.1f} s)")
            return 1
        timeout = TIMEOUT_FACTOR * seconds
        print(f"unmutated suite passes in {seconds:.1f} s; timeout {timeout:.0f} s", flush=True)
        for name, key, rel, text in work:
            original = (copy / rel).read_text()
            own = _own_tests(rel)
            try:
                (copy / rel).write_text(text)
                passed, seconds, timed_out = _tier1(copy, timeout, own) if own else \
                    (True, 0.0, False)
                if passed:
                    passed, more, timed_out = _tier1(copy, timeout)
                    seconds += more
            finally:
                (copy / rel).write_text(original)
            outcome = ("timed out" if timed_out else "killed") if not passed else \
                "allowlisted" if (name, key) in allowed else "SURVIVED"
            print(f"{outcome:11} {seconds:6.1f} s  {name}: {key}", flush=True)
            outcomes.append(outcome)
    counts = {o: outcomes.count(o) for o in ("killed", "timed out", "allowlisted", "SURVIVED")}
    print(f"{len(work)} mutants: {counts['killed']} killed, {counts['timed out']} timed out, "
          f"{counts['allowlisted']} allowlisted, {counts['SURVIVED']} surviving; "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if counts["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
