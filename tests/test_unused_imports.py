"""Every module of the package uses each name it imports.

No linter ships with the project, so this is the standard-library check:
an imported name that no expression of its module reads fails, unless its
line carries ``# noqa: F401``.  Such a line is allowed only for a name
that ``perfbench/tracer.py`` patches in that module, as a
``(fracvi.<module>, "<name>", ...)`` tuple: the tracer is parsed, never
imported.  ``__init__`` re-exports by import and is exempt.  Every name
the tracer patches must resolve, so that a deletion in the package cannot
break ``perfbench/run.py --trace 1`` unseen.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracvi"
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound_names(tree: ast.Module, lines: list[str]):
    """(name, line, noqa) for each name an import statement binds, minus
    the ``__future__`` imports; ``noqa`` marks a ``# noqa: F401`` line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, alias.lineno, "# noqa: F401" in lines[alias.lineno - 1]


def _owner(node) -> str | None:
    """``module.Attr`` for the expression ``fracvi.module.Attr``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name) and node.id == "fracvi":
        return ".".join(reversed(parts))
    return None


def _patched_names() -> set[tuple[str, str]]:
    """(owner, name) of every ``(fracvi.<owner>, "<name>", ...)`` tuple in
    the tracer; the owner is a module (``solver``) or an attribute of one
    (``solver.NewtonDiagnostics``)."""
    out = set()
    for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Tuple) or len(node.elts) < 2:
            continue
        owner, name = _owner(node.elts[0]), node.elts[1]
        if owner and isinstance(name, ast.Constant) and isinstance(name.value, str):
            out.add((owner, name.value))
    return out


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
        for name, line, noqa in _bound_names(tree, source.splitlines())
        if name not in used and not noqa
    ]
    assert not unused, "imported but unused: " + ", ".join(unused)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_noqa_imports_are_tracer_patch_points(path):
    source = path.read_text(encoding="utf-8")
    patched = _patched_names()
    unpatched = [
        f"{path.name}:{line}: {name}"
        for name, line, noqa in _bound_names(ast.parse(source), source.splitlines())
        if noqa and (path.stem, name) not in patched
    ]
    message = "noqa: F401 on a name perfbench/tracer.py does not patch: "
    assert not unpatched, message + ", ".join(unpatched)


def test_tracer_patch_points_resolve():
    patched = _patched_names()
    assert ("solver", "solve_bvp_newton") in patched  # the parse found the tuples
    assert ("solver.NewtonDiagnostics", "write_csv") in patched
    missing = []
    for owner, name in sorted(patched):
        module, *attrs = owner.split(".")
        obj = importlib.import_module(f"fracvi.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not hasattr(obj, name):
            missing.append(f"fracvi.{owner}.{name}")
    assert not missing, "perfbench/tracer.py patches missing names: " + ", ".join(missing)
