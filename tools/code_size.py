"""Count the code lines and code tokens of a Python source tree.

    python tools/code_size.py [ROOT]      # ROOT defaults to src/spinamp

It prints one line per module, its path under ROOT with its code lines and
code tokens, then the total over ROOT as the last line.

A code token is any token `tokenize` yields except comments, line breaks
(NL, NEWLINE), INDENT, DEDENT, ENDMARKER and docstrings: the string that
opens a module, class or function body, as `ast` finds it. A code line is
a line on which a code token starts. Blank lines, comments and docstrings
therefore count for nothing, and reflowing a docstring or a comment moves
neither number. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) where each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_size(source: str) -> tuple[int, int]:
    """(code lines, code tokens) of one module's source."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    tokens = 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        tokens += 1
        lines.add(tok.start[0])
    return len(lines), tokens


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/spinamp")
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 1
    lines = tokens = 0
    for path in files:
        file_lines, file_tokens = code_size(path.read_text(encoding="utf-8"))
        print(f"{path.relative_to(root).as_posix()}: {file_lines} code lines, {file_tokens} code tokens")
        lines += file_lines
        tokens += file_tokens
    print(f"{root}: {len(files)} files, {lines} code lines, {tokens} code tokens")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
