#!/usr/bin/env python3
"""Count the lines of the package sources.

Usage: python3 scripts/count_lines.py [FILE ...]

Prints, per file and in total, the line count `wc -l` gives and the code
lines: lines holding a token that is neither a comment nor part of a
docstring (the first statement of a module, class or function, when it is
a string).  Blank lines are not code.  The files default to
src/spweil/*.py.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source):
    """(wc -l count, code-line count) of a Python source string."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs)


def main(argv=None):
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] if argv else sorted((root / "src" / "spweil").glob("*.py"))
    total_wc = total_code = 0
    for path in paths:
        wc, code = count_lines(path.read_text())
        total_wc += wc
        total_code += code
        print(f"{wc:6d} {code:6d}  {path.name}")
    print(f"{total_wc:6d} {total_code:6d}  total (wc -l, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
