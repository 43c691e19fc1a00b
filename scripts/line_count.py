#!/usr/bin/env python3
"""Count the lines of every Python file under ``src`` and ``perfbench``.

    python3 scripts/line_count.py

The output is one JSON line: ``config`` and, per file (its path from the
repository root), its physical lines and its code lines, plus the totals
of each of the two trees.
A code line holds some token that is not a comment or a docstring; blank
lines, comment lines and docstring lines do not count.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "perfbench")
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    files, total = {}, {}
    for tree in TREES:
        counts = {}
        for path in sorted((ROOT / tree).rglob("*.py")):
            source = path.read_text()
            counts[path.relative_to(ROOT).as_posix()] = {
                "lines": len(source.splitlines()), "code": code_lines(source)}
        files.update(counts)
        total[tree] = {key: sum(f[key] for f in counts.values())
                       for key in ("lines", "code")}
    config = {"roots": list(TREES),
              "code": "lines with a token other than a comment or docstring"}
    print(json.dumps({"config": config, "files": files, "total": total}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
