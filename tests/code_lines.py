"""Count the code lines of a package's modules.

A code line is any line of a module but a blank line, a line that holds only
a comment, and a line of a module, class or function docstring. Run

    python tests/code_lines.py [PACKAGE_DIR]

to print the count of each module of ``PACKAGE_DIR`` (``src/bikecast`` by
default) and their total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The code lines of the module ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, _DOCUMENTED) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else Path(__file__).parents[1] / "src" / "bikecast")
    total = 0
    for module in sorted(package.glob("*.py")):
        count = code_lines(module.read_text())
        total += count
        print(f"{count:6d}  {module.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
