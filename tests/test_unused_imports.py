"""Every module of the package uses each name it imports.

No linter ships with the project, so this is the standard-library check:
an imported name that no expression of its module reads fails, unless its
line carries ``# noqa: F401``.  Such a line is allowed only for a name
that ``perfbench/tracer.py`` patches in that module, as a
``(fracvi.<module>, "<name>", ...)`` tuple: the tracer is parsed, never
imported.  ``__init__`` re-exports by import and is exempt.  Every name
the tracer patches must resolve, so that a deletion in the package cannot
break ``perfbench/run.py --trace 1`` unseen, and so must every name that
a ``perfbench`` file takes from the package, by ``from fracvi... import``
or as a ``fracvi.<attr>`` read: those files are parsed too, never
imported.  Importing the package and its CLI loads no third-party package
but numpy.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracvi"
BENCHMARK = ROOT / "perfbench"
TRACER = BENCHMARK / "tracer.py"
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


def _resolve(dotted: str) -> bool:
    """Whether the dotted name is its longest importable prefix followed by
    attributes that exist."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
            break
        except ModuleNotFoundError:
            continue
    for attr in parts[i:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _package_names(tree: ast.Module) -> set[str]:
    """Every dotted ``fracvi...`` name a module takes from the package: the
    modules it imports, each name of a ``from fracvi... import``, and each
    attribute chain it reads from the name ``fracvi``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names if alias.name.split(".")[0] == "fracvi"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fracvi":
            out |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Attribute) and _owner(node):
            out.add(f"fracvi.{_owner(node)}")
    return out


def test_benchmark_names_resolve():
    names = set()
    for path in sorted(BENCHMARK.rglob("*.py")):
        names |= _package_names(ast.parse(path.read_text(encoding="utf-8")))
    assert "fracvi.solver.BVPProblem" in names  # the parse found the imports
    assert "fracvi.cli.main" in names  # and the attribute reads
    missing = sorted(name for name in names if not _resolve(name))
    assert not missing, "perfbench reads missing names: " + ", ".join(missing)


def test_import_loads_no_third_party_package_but_numpy():
    # importing scipy.linalg alone takes about 0.3 s and 28 MB on a 2-core
    # x86_64 host, which every CLI call and every solve would pay; packages
    # loaded at interpreter start-up (site hooks) are not the package's
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import fracvi, fracvi.cli\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(tops - set(sys.stdlib_module_names)))\n"
    )
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["fracvi", "numpy"]
