"""Every module of the package uses each name it imports.

No linter ships with the project, so this is the standard-library check:
an imported name that no expression of its module reads fails, unless its
line carries ``# noqa: F401`` (the names perfbench's tracer patches in a
module that does not call them itself).  ``__init__`` re-exports by import
and is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracvi"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound_names(tree: ast.Module, lines: list[str]):
    """(name, line) for each name an import statement binds, minus the
    ``__future__`` imports and the lines marked ``# noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            yield name, alias.lineno


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module reads, those of quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                quoted = ast.walk(ast.parse(note.value, mode="eval"))
                names |= {n.id for n in quoted if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _read_names(tree)
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in _bound_names(tree, source.splitlines())
        if name not in used
    ]
    assert not unused, "imported but unused: " + ", ".join(unused)
