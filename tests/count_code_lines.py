"""Count the code lines of the package: lines that hold Python tokens.

    python tests/count_code_lines.py [package_dir]

A line counts if some token other than a comment, a docstring or a line
break lies on it; a token spanning several lines counts each of them.
Docstrings are the string statements that open a module, class or function
body.  Blank lines and comment-only lines do not count.  ``package_dir``
defaults to ``src/lamedit``; the script prints the total over its ``*.py``
files.  No test imports it.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE_DIR = os.path.join(os.path.dirname(HERE), "src", "lamedit")
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines of ``source`` that hold a token outside docstrings."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def main(argv):
    package_dir = argv[0] if argv else PACKAGE_DIR
    total = 0
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += code_lines(fh.read())
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
