"""Count the code lines of Python modules: lines that are not blank, not
only a comment and not part of a docstring.

Usage::

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory, searched for ``*.py`` files
(default ``src/nsympeak``).  One line is printed per module, then the
total.  A line counts when it holds a token other than a comment or a
line break; a string that spans lines counts on each of them.  A
docstring is the string that opens a module, class or function body
(``ast.get_docstring``'s reading), and its lines do not count.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the Python module at path."""
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, filename=str(path))))


def modules(paths):
    for p in map(Path, paths):
        yield from sorted(p.rglob("*.py")) if p.is_dir() else [p]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src/nsympeak"]
    total = 0
    for path in modules(paths):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
