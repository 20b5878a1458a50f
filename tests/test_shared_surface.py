"""The two residual routes share only their helpers.

``schemes._direct`` (direct substitution) and ``lagrangians._gradient``
(the functional gradient) are the two independent assemblies whose
agreement is the coherence claim.  This standard-library check parses
the source of both and lists the names of its module that each reads, its
nested function included and its annotations left out (they are never
evaluated).  Both may read only the six helpers below: the window rows of
the velocity and of the outer operator, the GL velocity, the GL product,
the scale h^-alpha and the one batched callback call.  So neither reads
the other, and neither re-lays out a callback's result on its own (which
needs ``np``): a callback's layout reaches both routes alike.
"""

import ast
import importlib
import inspect

SHARED = {"_rows", "_outer_rows", "_velocity", "_operator", "_scale", "_lagrangian_values"}
ROUTES = {"schemes": "_direct", "lagrangians": "_gradient"}


def _reads(module: str, function: str) -> set[str]:
    """The module-level names that ``function`` of ``fracvi.<module>``
    reads, outside its annotations."""
    mod = importlib.import_module(f"fracvi.{module}")
    tree = ast.parse(inspect.getsource(getattr(mod, function)))
    notes = set()
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if note is not None:
                notes |= {id(n) for n in ast.walk(note)}
    loads = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in notes
    }
    return loads & set(vars(mod))


def test_routes_read_only_their_shared_helpers():
    reads = {function: _reads(module, function) for module, function in ROUTES.items()}
    assert reads["_direct"] and reads["_gradient"]  # the parse found both
    for function, names in reads.items():
        assert names <= SHARED, f"{function} reads {sorted(names - SHARED)}"
