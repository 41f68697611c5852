#!/usr/bin/env python3
"""Lines of code under a source directory: non-blank lines that are neither
comments nor docstrings, per module and in total.

A docstring is the string literal that opens a module, class or function
body; every line it spans is left out, as is every line holding nothing but
a comment.  A line that holds code and a trailing comment counts.

    python tools/code_lines.py [SRC]

SRC defaults to the repository's src directory.  One line per module,
"<path> <count>" with the path relative to SRC, then "total <count>".
"""

import ast
import io
import os
import sys
import tokenize


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by the source's docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of the source's lines that carry a token of code."""
    skip = docstring_lines(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def count_tree(src: str) -> list[tuple[str, int]]:
    """(path relative to src, code lines) for every .py file, sorted."""
    out = []
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    out.append((os.path.relpath(path, src),
                                code_lines(fh.read())))
    return sorted(out)


def main(argv: list[str]) -> int:
    src = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    counts = count_tree(src)
    for path, n in counts:
        print(f"{path} {n}")
    print(f"total {sum(n for _, n in counts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
