"""List every public function, class and method in `src/` that no `src/` module names.

Run from anywhere. It reads only the source, so it takes well under a
second, and `tests/test_tools.py` runs it in tier-1 and pins the list it
prints:

    python tools/unused.py

It parses each `src/` file with `ast`. A definition is a module-level
function or class, or a method of a module-level class, whose name does not
start with `_`. A reference is a name read anywhere in `src/`, either bare
(`score(...)`) or as an attribute (`frame.labels_at(...)`). Definitions,
imports, docstrings, comments and other strings are not references, so a
name that only a package `__init__` re-exports, or only the tests, the demos
or the bench call, is listed. Names are matched by name alone: a method
counts as used when any other definition of the same name is read.

It prints one `path:line: kind name` row per definition that is never read,
followed by a count.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KINDS = {ast.FunctionDef: "function", ast.AsyncFunctionDef: "function", ast.ClassDef: "class"}


def definitions(tree: ast.Module):
    """`(line, kind, name)` of each public top-level definition and method in `tree`."""
    for node in tree.body:
        if type(node) in KINDS and not node.name.startswith("_"):
            yield node.lineno, KINDS[type(node)], node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if type(member) in KINDS and not member.name.startswith("_"):
                    yield member.lineno, "method", f"{node.name}.{member.name}"


def references(tree: ast.Module) -> set[str]:
    """Every name that `tree` reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def main() -> int:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    read = set().union(*map(references, trees.values()))
    total = unused = 0
    for path, tree in trees.items():
        for line, kind, name in definitions(tree):
            total += 1
            if name.rpartition(".")[2] not in read:
                unused += 1
                print(f"{path.relative_to(ROOT)}:{line}: {kind} {name}")
    print(f"{unused} of {total} public definitions in src/ are never read in src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
