"""Every dataclass of the package declares a field of its own.

``@dataclass`` on a class that declares no field generates nothing new:
a second copy of its base's ``__repr__``, ``__eq__``, ``__hash__`` and
frozen ``__setattr__`` / ``__delattr__``, compiled at import.  So a
decorated class must declare a field, or declare an inherited one again
(as ``Trajectory`` does ``k_start``, which ``dataclasses.replace`` then
leaves out).  The check parses the modules, as ``test_unused_imports.py``
does.  The two field-less window types, ``ShiftedSequence`` and
``ResidualField``, inherit ``Sequence``'s methods; the rest of the module
pins what a caller sees of them, and that a pickle or copy of any frozen
grid or sequence keeps its arrays read-only.
"""

import ast
import copy
import dataclasses
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest

import fracvi as fv

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracvi"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_dataclass_decorator(node) -> bool:
    """Whether ``node`` is ``@dataclass`` or ``@dataclass(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Name) and node.id == "dataclass"


def _declares_a_field(cls: ast.ClassDef) -> bool:
    """Whether the class body annotates a name other than as a ClassVar."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and "ClassVar" not in ast.unparse(stmt.annotation):
            return True
    return False


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_dataclass_declares_a_field(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bare = [
        f"{path.name}:{node.lineno}: {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(map(_is_dataclass_decorator, node.decorator_list))
        and not _declares_a_field(node)
    ]
    assert not bare, "@dataclass on a class that declares no field: " + ", ".join(bare)


def test_the_guard_sees_the_package_dataclasses():
    # the parse finds the decorated classes, Trajectory's field included
    found = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
                found[node.name] = _declares_a_field(node)
    assert {"Grid", "Sequence", "Trajectory", "NewtonConfig", "Lagrangian"} <= set(found)
    assert found["Trajectory"]


def _windows():
    grid = fv.make_grid(0.0, 1.0, 2)
    return [fv.ShiftedSequence(grid, fv.MINUS, [2.5, 3.0]), fv.ResidualField(grid, 1, [[-0.5]])]


WINDOW_IDS = ["shifted", "residual"]


def test_window_type_constructor_signatures():
    assert str(inspect.signature(fv.ShiftedSequence)) == "(grid: 'Grid', side: 'int', values)"
    assert str(inspect.signature(fv.ResidualField)) == (
        "(grid: 'Grid', k_start: 'int', values: 'np.ndarray') -> None"
    )
    # keywords reach the inherited constructor and its checks
    field = fv.ResidualField(grid=fv.make_grid(0.0, 1.0, 4), k_start=1, values=np.ones(3))
    assert list(field.indices) == [1, 2, 3]
    with pytest.raises(fv.DomainError, match="window 3..5 outside grid nodes 0..4"):
        fv.ResidualField(fv.make_grid(0.0, 1.0, 4), 3, np.ones(3))


def test_window_type_repr_text():
    shifted, residual = _windows()
    assert repr(shifted) == (
        "ShiftedSequence(grid=Grid(a=0.0, b=1.0, n=2), k_start=1, values=array([[2.5],\n"
        "       [3. ]]))"
    )
    assert repr(residual) == (
        "ResidualField(grid=Grid(a=0.0, b=1.0, n=2), k_start=1, values=array([[-0.5]]))"
    )


@pytest.mark.parametrize("which", range(2), ids=WINDOW_IDS)
def test_window_type_equality_and_hash(which):
    seq = _windows()[which]
    twin = copy.deepcopy(seq)
    assert seq == seq and not seq != seq
    # the fields' tuples are compared, within the same type only, so a
    # second values array of more than one entry meets numpy's truth value
    if seq.values.size == 1:
        assert seq == twin
    else:
        with pytest.raises(ValueError, match="ambiguous"):
            seq == twin
    assert seq != fv.grids.Sequence(seq.grid, seq.k_start, seq.values)
    assert seq != _windows()[1 - which]
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(seq)


@pytest.mark.parametrize("which", range(2), ids=WINDOW_IDS)
def test_window_type_is_frozen(which):
    seq = _windows()[which]
    for name in ("grid", "k_start", "values"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(seq, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(seq, name)
    for name in ("dim", "indices") + (("side",) if which == 0 else ()):
        with pytest.raises(AttributeError):
            setattr(seq, name, None)
    with pytest.raises(ValueError, match="read-only"):
        seq.values[0, 0] = 1.0


@pytest.mark.parametrize("which", range(2), ids=WINDOW_IDS)
def test_window_type_pickle_and_copy_round_trip(which):
    seq = _windows()[which]
    for twin in (pickle.loads(pickle.dumps(seq)), copy.copy(seq), copy.deepcopy(seq)):
        assert type(twin) is type(seq)
        assert twin.grid == seq.grid and twin.k_start == seq.k_start
        assert twin.values.tobytes() == seq.values.tobytes()
        assert list(twin.indices) == list(seq.indices)


@pytest.mark.parametrize("which", range(2), ids=WINDOW_IDS)
def test_window_type_refuses_a_new_attribute(which):
    # as the decorated Trajectory does
    seq = _windows()[which]
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'foo'"):
        seq.foo = 1
    assert not hasattr(seq, "foo")


def _frozen_objects():
    grid = fv.make_grid(0.0, 1.0, 2)
    traj = fv.Trajectory(grid, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    return [grid, traj, fv.grids.Sequence(grid, 1, [7.0])] + _windows()


def _arrays(obj):
    """The frozen arrays of a grid or a sequence."""
    return [obj.nodes] if isinstance(obj, fv.Grid) else [obj.grid.nodes, obj.values]


@pytest.mark.parametrize("which", range(5), ids=["grid", "trajectory", "sequence"] + WINDOW_IDS)
def test_round_trips_keep_the_arrays_read_only(which):
    obj = _frozen_objects()[which]
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is type(obj)
        for arr, original in zip(_arrays(twin), _arrays(obj)):
            assert arr.tobytes() == original.tobytes()
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 9.0


@pytest.mark.parametrize("which", range(2), ids=WINDOW_IDS)
def test_window_type_fields(which):
    seq = _windows()[which]
    assert dataclasses.is_dataclass(seq)
    assert [f.name for f in dataclasses.fields(seq)] == ["grid", "k_start", "values"]
    assert [f.name for f in dataclasses.fields(fv.Trajectory) if f.init] == ["grid", "values"]
