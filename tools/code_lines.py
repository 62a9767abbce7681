"""Count the code lines of Python sources: the AST count, with no
docstrings, comments or blank lines.

A line counts when a token other than a comment or a line break
starts on it, ends on it or spans it, so a multi-line expression or
string counts every line it covers, unless the line belongs to a
module, class or function docstring.  Usage, from any directory:

    python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory, searched recursively for .py
files; the default is the package, src/nilmat.  Prints each file's
count and path, from PATH's parent, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, _DOCUMENTED)
            and ast.get_docstring(node, clean=False) is not None
        ):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv):
    roots = [Path(a) for a in argv] or [
        Path(__file__).resolve().parent.parent / "src" / "nilmat"
    ]
    total = 0
    for root in roots:
        for f in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            count = code_lines(f.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {f.relative_to(root.parent)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
