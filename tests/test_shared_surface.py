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

Within ``fracops`` the same parse checks that ``_velocity`` is the one
function that applies a grid's GL product with its signed scale: the
public operators and the integration-by-parts sums read it, and only
``_windowed``, over a sequence's window, binds a product of its own.
"""

import ast
import importlib
import inspect

SHARED = {"_rows", "_outer_rows", "_velocity", "_operator", "_scale", "_lagrangian_values"}
ROUTES = {"schemes": "_direct", "lagrangians": "_gradient"}
#: The GL product's builders, and the fracops functions that scale one:
#: the velocity on a grid, and the GL operator over a sequence's window.
PRODUCT = {"_scale", "_operator", "_kernel"}
SCALES_A_PRODUCT = PRODUCT | {"_velocity", "_windowed"}


def _reads(module: str, function: str) -> set[str]:
    """The module-level names that ``function`` of ``fracvi.<module>``
    reads, outside its annotations."""
    mod = importlib.import_module(f"fracvi.{module}")
    return _loads(ast.parse(inspect.getsource(getattr(mod, function)))) & set(vars(mod))


def _loads(tree: ast.AST) -> set[str]:
    """The names that ``tree`` reads, outside its annotations."""
    notes = set()
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if note is not None:
                notes |= {id(n) for n in ast.walk(note)}
    return {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in notes
    }


def test_routes_read_only_their_shared_helpers():
    reads = {function: _reads(module, function) for module, function in ROUTES.items()}
    assert reads["_direct"] and reads["_gradient"]  # the parse found both
    for function, names in reads.items():
        assert names <= SHARED, f"{function} reads {sorted(names - SHARED)}"


def test_fracops_scales_a_grid_product_only_in_the_velocity():
    mod = importlib.import_module("fracvi.fracops")
    tree = ast.parse(inspect.getsource(mod))
    reads = {node.name: _loads(node) for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert reads["_velocity"] >= {"_scale", "_operator"}  # the parse found them
    assert {"delta_alpha_minus", "delta_alpha_plus", "_ibp_sides"} <= set(reads)
    offenders = {
        name: sorted(names & PRODUCT)
        for name, names in reads.items()
        if name not in SCALES_A_PRODUCT and names & PRODUCT
    }
    assert not offenders, f"fracops functions that bind a GL product: {offenders}"
