"""Count the code lines of the package's modules.

Run it from a checkout:

    python tests/codelines.py [PATH ...]

It prints one line per module, its code lines and its path, then the
total.  A PATH is a module or a directory, whose ``*.py`` files it reads
(not those of its subdirectories); with none it reads this checkout's
``src/fracvi``.  A code line is a line that holds part of a token other
than a comment, a docstring or a line break: blank lines, comment lines
and the lines of a module's, class's or function's docstring do not
count, and a statement or string that spans several lines counts each of
them.  ROADMAP and CHANGES.md state the package's size in these lines.
pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def modules(paths: list[str]) -> list[Path]:
    """The modules that ``paths`` name, each directory's sorted by name."""
    found = []
    for path in map(Path, paths):
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    paths = argv or [str(Path(__file__).resolve().parents[1] / "src" / "fracvi")]
    total = 0
    for module in modules(paths):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {module}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
