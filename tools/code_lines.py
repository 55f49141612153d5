"""Count the lines and code lines of each fedsim module.

A code line holds a token other than a comment, newline or indent and lies
outside every module, class and function docstring; a token spanning
several lines (a multi-line string) makes each of them a code line. Uses
the standard library only.

    python3 tools/code_lines.py [PACKAGE_DIR]    (default: src/fedsim)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            code.update(row for row in range(token.start[0], token.end[0] + 1)
                        if row not in docs)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1] / "src" / "fedsim")
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
