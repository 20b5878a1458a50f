"""Every callback call of a march goes through one read-only pair.

``solver.march`` writes Q_j and v into one pair of (d,) arrays per march
and hands ``Lx`` and ``Lv`` read-only views of them, at every d.  This
standard-library check parses the source of ``march``: the pair's views
are the names bound to ``<array>.view()`` whose ``flags.writeable`` is set
to False, and every ``lagrangians._call`` in it must take exactly those
two names as its x and v.  So no layout of the march can hand a callback
an array that the march or its caller keeps.  ``solver.py`` must not
import ``_lagrangian_values`` either, the batched pair call that takes
whatever arrays it is given.
"""

import ast
import inspect

from fracvi import solver


def _read_only_views(tree) -> set[str]:
    """The names bound to ``<array>.view()`` whose ``flags.writeable``
    the same source sets to False."""
    views, frozen = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        target, value = node.targets[0], node.value
        pairs = [(target, value)]
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs = zip(target.elts, value.elts)  # a, b = c.view(), d.view()
        for target, value in pairs:
            if isinstance(value, ast.Call) and getattr(value.func, "attr", None) == "view":
                views.add(target.id)
        if isinstance(node.value, ast.Constant) and node.value.value is False:
            for target in node.targets:  # a.flags.writeable = b.flags.writeable = False
                if getattr(target, "attr", None) == "writeable":
                    frozen.add(target.value.value.id)
    return views & frozen


def test_every_march_callback_call_takes_the_read_only_pair():
    tree = ast.parse(inspect.getsource(solver.march))
    views = _read_only_views(tree)
    assert len(views) == 2, f"read-only views found: {sorted(views)}"
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_call", "_lagrangian_values")
    ]
    assert len(calls) == 4  # Lx and Lv at node j-1 and in the step residual
    for call in calls:
        assert call.func.id == "_call", f"line {call.lineno} calls {call.func.id}"
        x, v = call.args[3:5]
        assert {getattr(x, "id", None), getattr(v, "id", None)} == views, ast.unparse(call)


def test_solver_does_not_import_the_unguarded_pair_call():
    tree = ast.parse(inspect.getsource(solver))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "_lagrangian_values" not in imported
