"""Print the code lines and raw lines of the Python files under src/quadrics.

Code lines hold at least one token that is not a comment, with docstrings
(module, class and function) left out; raw lines are every line of every
file.  Run:

    python3 tools/code_lines.py
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, raw lines) of one file's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source))), len(source.splitlines())


def main() -> None:
    root = Path(__file__).resolve().parents[1] / "src" / "quadrics"
    totals = [count(p.read_text()) for p in sorted(root.rglob("*.py"))]
    print(f"code lines: {sum(c for c, _ in totals)}")
    print(f"raw lines: {sum(r for _, r in totals)}")


if __name__ == "__main__":
    main()
