"""Count the lines of the phekit package: total and code only.

Code-only lines are those left after dropping blank lines, comment-only
lines and the lines of module, class and function docstrings. Prints one
row per module of src/phekit and the sums; it only reports, and exits 0.

    python scripts/loc.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code-only lines) of one Python source file."""
    source = path.read_text(encoding="utf-8")
    code: set[int] = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _LAYOUT:
                code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "phekit"
    files = sorted(root.rglob("*.py"))
    totals = [0, 0]
    print(f"{'module':<36} {'total':>6} {'code':>6}")
    for path in files:
        total, code = count(path)
        totals[0] += total
        totals[1] += code
        print(f"{path.relative_to(root).as_posix():<36} {total:>6} {code:>6}")
    print(f"{f'sum ({len(files)} modules)':<36} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
