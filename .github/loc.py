"""Print the lines of code of a Python package, per module and in total.

    python3 .github/loc.py [package directory, default src/biprod]

Run from the repository root.  A line of code is a non-blank line that
is not a comment alone and not inside the docstring of a module, class
or function.  Modules are listed by path relative to the package, in
sorted order, and the last line is the total.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The numbers of the lines that a module, class or function docstring spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The lines of code in one module's source."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/biprod")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = count(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
