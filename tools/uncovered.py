"""List every statement in `src/` that the tier-1 tests never run.

Run from anywhere, on demand; it is not part of tier-1 and takes about as
long as tier-1 does, a little more under the trace:

    python tools/uncovered.py                      # the whole tier-1 suite
    python tools/uncovered.py tests/test_dataio.py # any pytest arguments

It runs pytest in this process under a `sys.settrace` hook (and
`threading.settrace`, for the GA's worker threads) that records the lines run
in frames of files under `src/` and ignores every other frame. It then parses
each `src/` file with `ast` and prints one `path:line: source` row for each
statement whose first line never ran, followed by a count. Docstrings and
statements that compile to no code (`global`, `nonlocal`, a bare annotation in
a function) are not counted.

Only this process is traced: code that the tests run in a subprocess, such as
the demos and the CLI's subprocess tests, counts as never run.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def run_traced(pytest_args: list[str]) -> dict[str, set[int]]:
    """The lines run in `src/` files while pytest runs `pytest_args`, by real path."""
    import pytest

    prefix = str(SRC) + os.sep
    executed: dict[str, set[int]] = defaultdict(set)
    wanted: dict[str, str] = {}  # co_filename -> real path under src/, or ""

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        path = wanted.get(name)
        if path is None:
            real = os.path.realpath(name)
            path = wanted[name] = real if real.startswith(prefix) else ""
        if not path:
            return None
        lines = executed[path]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return executed


def _docstrings(tree: ast.Module) -> set[ast.stmt]:
    owners = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return {
        owner.body[0] for owner in owners
        if isinstance(owner.body[0], ast.Expr)
        and isinstance(owner.body[0].value, ast.Constant)
        and isinstance(owner.body[0].value.value, str)
    }


def statement_lines(source: str) -> list[int]:
    """The first line of each statement in `source` that compiles to code."""
    tree = ast.parse(source)
    skipped = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skipped.update(
                stmt for stmt in ast.walk(node)
                if isinstance(stmt, ast.AnnAssign) and stmt.value is None
            )
    return sorted({
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and node not in skipped
        and not isinstance(node, (ast.Global, ast.Nonlocal))
    })


def main(argv: list[str]) -> int:
    executed = run_traced(argv or TIER1_ARGS)
    total = missed = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = executed.get(os.path.realpath(path), set())
        lines = statement_lines(source)
        total += len(lines)
        for line in lines:
            if line not in ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} statements in src/ never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
