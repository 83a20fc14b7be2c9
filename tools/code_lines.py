"""Count the code lines of the package's modules.

A code line is a line that is not blank, not a comment alone and not
inside the docstring of a module, class or function.  Lines of other
string literals, and code lines that end in a comment, count.  Run it as

    python tools/code_lines.py [SRC_DIR]

with SRC_DIR the package directory (default ``src/poisson_moments``); it
prints one line per module, ``<count> <name>``, and the total last.
Standard library only.
"""

from __future__ import annotations

import ast
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_SRC = HERE.parent / "src" / "poisson_moments"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings of ``tree``'s scopes span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python text ``source``."""
    skip = _docstring_lines(ast.parse(source))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = pathlib.Path(args[0]) if args else DEFAULT_SRC
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:5} {path.stem}")
    print(f"{total:5} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
