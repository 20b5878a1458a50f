"""Count the code lines of the package's modules.

Run it from a checkout:

    python tests/codelines.py [PATH ...]
    python tests/codelines.py --against OTHER [PATH]

It prints one line per module, its code lines and its path, then the
total.  A PATH is a module or a directory, whose ``*.py`` files it reads
(not those of its subdirectories), or a checkout, whose ``src/fracvi`` it
reads; with none it reads this checkout's ``src/fracvi``.  With
``--against``, OTHER is a second such tree: each line names a module,
its code lines in OTHER and in PATH, and the change from OTHER to PATH,
with ``-`` for a module one tree lacks, and the last line does the same
for the totals.  A code line is a line that holds part of a token other
than a comment, a docstring or a line break: blank lines, comment lines
and the lines of a module's, class's or function's docstring do not
count, and a statement or string that spans several lines counts each of
them.  ROADMAP and CHANGES.md state the package's size in these lines.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
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
    """The modules that ``paths`` name, each directory's sorted by name; a
    checkout names its ``src/fracvi``."""
    found = []
    for path in map(Path, paths):
        if (path / "src" / "fracvi").is_dir():
            path = path / "src" / "fracvi"
        found.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return found


def counts(paths: list[str]) -> dict[str, int]:
    """The code lines of each module that ``paths`` name, by file name."""
    return {module.name: code_lines(module.read_text(encoding="utf-8")) for module in modules(paths)}


def _column(count: int | None) -> str:
    return "     -" if count is None else f"{count:6d}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="codelines.py", description="Count code lines.")
    parser.add_argument("paths", nargs="*", metavar="PATH")
    parser.add_argument("--against", metavar="OTHER", help="a second tree to compare with")
    args = parser.parse_args(argv)
    paths = args.paths or [str(Path(__file__).resolve().parents[1])]
    if args.against is None:
        total = 0
        for module in modules(paths):
            count = code_lines(module.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d} {module}")
        print(f"{total:6d} total")
        return 0
    if len(paths) > 1:
        parser.error("--against compares one PATH")
    other, this = counts([args.against]), counts(paths)
    print(f"{'other':>6} {'this':>6} {'change':>6} module")
    for name in sorted(other.keys() | this.keys()):
        old, new = other.get(name), this.get(name)
        print(f"{_column(old)} {_column(new)} {(new or 0) - (old or 0):+6d} {name}")
    old, new = sum(other.values()), sum(this.values())
    print(f"{old:6d} {new:6d} {new - old:+6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
