"""Lagrangian evaluation interface, built-in problems, and the discrete
Lagrangian functional with its analytic gradient.

A Lagrangian is supplied as three callables L, Lx, Lv of (x, v, t); no
automatic differentiation is involved, which keeps the C2 contract directly
testable against finite differences.  The callables work on arrays: x and v
have shape (..., d) and t has shape (...); L returns shape (...) and Lx, Lv
return shape (..., d).  One call thus serves a single node (a (d,) vector
and a scalar t) or a whole window of m nodes ((m, d) and (m,)), and each
assembly below makes one Lx and one Lv call.  The discrete functional
and its gradient each serve both embeddings with the GL velocity of an
order in (0, 1]; ``alpha=None`` is the classical alpha = 1.  The gradient
is assembled analytically from the chain rule, its adjoint by
``fracops._operator`` (the transpose of the velocity's GL kernel, a
two-point difference at alpha = 1); ``functional_gradient`` checks its
arguments and calls the array-level core that ``_gradient`` makes for one
grid, which holds its operators; a Newton solve makes one such core.  The
callback helpers take the window's x, v and t as arrays.  Every callback
result, a march step's too, goes through ``_call``, which converts and
shape-checks it; no library code writes to one.
The Newton Jacobian's pointwise Hessian blocks are forward differences of
Lx and Lv with the relative step FD_STEP, the one the solver uses;
finite-difference gradients of the functional are a test oracle only and
live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fracops import _operator, _scale, _unit_order, _velocity, discrete_velocity_alpha
from .fracops import gauss_quadrature
from .fracops import discrete_velocity  # noqa: F401  perfbench/tracer.py patches it here
from .fracops import gl_coefficients  # noqa: F401  perfbench/tracer.py patches it here
from .grids import (
    DomainError,
    Grid,
    ResidualField,
    ShiftedSequence,
    Trajectory,
    _outer_rows,
    _rows,
    check_integer,
    check_sigma,
)

Vec = np.ndarray
#: L(x, v, t) with x, v of shape (..., d) and t of shape (...); returns (...).
ScalarFn = Callable[[Vec, Vec, Vec], Vec]
#: Lx or Lv(x, v, t), arguments as for ScalarFn; returns shape (..., d).
VectorFn = Callable[[Vec, Vec, Vec], Vec]

#: Relative forward-difference step: an entry y moves by FD_STEP * (1 + |y|).
FD_STEP = 1e-6
#: Rounding error of one forward quotient at that step, relative to
#: 1 + |entry|: a Hessian entry whose node values spread by no more is one
#: value up to that noise.
FD_NOISE = np.finfo(float).eps / FD_STEP


@dataclass(frozen=True, kw_only=True)
class Lagrangian:
    """L(x, v, t) with its partial derivatives Lx = dL/dx and Lv = dL/dv,
    each evaluated row by row on x, v of shape (..., d) and t of shape (...).

    A callback must not write to its arguments, which are valid only
    during the call: a boundary-value solve passes views of its read-only
    node values, and a march, at any d, a read-only pair of (d,) arrays
    that it rewrites for every call.  A callback that keeps an argument
    must copy it."""

    L: ScalarFn
    Lx: VectorFn
    Lv: VectorFn
    dim: int
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "dim", check_integer(self.dim, "Lagrangian dim"))
        if self.dim < 1:
            raise DomainError(f"Lagrangian dim must be at least 1, got {self.dim}")


def mechanical(
    potential: Callable[[Vec], Vec],
    grad_potential: Callable[[Vec], Vec],
    dim: int = 1,
    name: str = "mechanical",
) -> Lagrangian:
    """L(x, v, t) = |v|^2 / 2 - U(x), with Lv = v and Lx = -grad U exactly;
    U maps x of shape (..., d) to shape (...), grad U to shape (..., d).
    Lv returns v itself; only ``_call`` converts, so grad U may return a list.
    The built-in harmonic and pendulum problems take this L and Lv and
    evaluate the same force as one product, bit for bit this Lx on finite
    input."""

    def Lx(x: Vec, v: Vec, t: Vec) -> Vec:
        return np.negative(grad_potential(x))

    return _mechanical(potential, Lx, dim, name)


def _mechanical(potential: Callable[[Vec], Vec], Lx: VectorFn, dim: int, name: str) -> Lagrangian:
    """:func:`mechanical`'s L and Lv with the force ``Lx`` as given."""

    def L(x: Vec, v: Vec, t: Vec) -> Vec:
        return 0.5 * np.sum(v * v, axis=-1) - potential(x)

    def Lv(x: Vec, v: Vec, t: Vec) -> Vec:
        return v

    return Lagrangian(L=L, Lx=Lx, Lv=Lv, dim=dim, name=name)


def free_particle(dim: int = 1) -> Lagrangian:
    """U identically zero."""
    return mechanical(
        lambda x: 0.0,
        np.zeros_like,
        dim=dim,
        name="free",
    )


def harmonic_oscillator(omega: float = 1.0, dim: int = 1) -> Lagrangian:
    """U(x) = omega^2 |x|^2 / 2: :func:`mechanical` with grad U = omega^2 x,
    its force Lx evaluated as the one product ``x * -omega^2``.  Rounding
    is symmetric in sign, so on finite input that is -(omega^2 x) bit for
    bit; only a NaN's sign bit may differ."""
    w2 = float(omega) ** 2
    return _mechanical(
        lambda x: 0.5 * w2 * np.sum(x * x, axis=-1),
        lambda x, v, t: np.multiply(x, -w2),
        dim,
        "harmonic",
    )


def pendulum(omega: float = 1.0, dim: int = 1) -> Lagrangian:
    """Smooth pendulum-type nonlinearity: U(x) = omega^2 sum_i (1 - cos x_i),
    :func:`mechanical` with grad U = omega^2 sin x, its force Lx evaluated
    as ``sin(x) * -omega^2``: on finite input -(omega^2 sin x) bit for bit,
    as for :func:`harmonic_oscillator`."""
    w2 = float(omega) ** 2
    return _mechanical(
        lambda x: w2 * np.sum(1.0 - np.cos(x), axis=-1),
        lambda x, v, t: np.multiply(np.sin(x), -w2),
        dim,
        "pendulum",
    )


BUILTIN_PROBLEMS = ("free", "harmonic", "pendulum")


def builtin_problem(name: str, omega: float = 1.0, dim: int = 1) -> Lagrangian:
    """Built-in problems addressable by name (for the command line)."""
    if not np.isfinite(float(omega) * float(omega)):  # the potentials scale by omega^2
        raise DomainError(f"omega must be finite with a finite square, got {omega}")
    if name == "free":
        return free_particle(dim=dim)
    if name == "harmonic":
        return harmonic_oscillator(omega=omega, dim=dim)
    if name == "pendulum":
        return pendulum(omega=omega, dim=dim)
    raise DomainError(f"unknown problem {name!r}, expected one of {BUILTIN_PROBLEMS}")


def _check_dims(lag: Lagrangian, q: Trajectory) -> None:
    if lag.dim != q.dim:
        raise DomainError(
            f"dimension mismatch: Lagrangian dim {lag.dim}, trajectory dim {q.dim}"
        )


def _call(fn, name: str, shape: tuple, x: Vec, v: Vec, t: Vec) -> Vec:
    """One batched callback call: the one place that makes a callback's
    result a float array (a float array as it is) and refuses a wrong shape."""
    out = np.asarray(fn(x, v, t), dtype=float)
    if out.shape != shape:
        raise DomainError(
            f"Lagrangian callback {name} returned shape {out.shape}, expected "
            f"{shape}: callbacks take x, v of shape (..., d) and t of shape (...)"
        )
    return out


def _lagrangian_values(lag: Lagrangian, x: Vec, v: Vec, t: Vec):
    """Lx and Lv at the window nodes: x, v of shape (m, d), t of shape (m,)."""
    return _call(lag.Lx, "Lx", v.shape, x, v, t), _call(lag.Lv, "Lv", v.shape, x, v, t)


def _hessian_blocks(lag: Lagrangian, x: Vec, v: Vec, t: Vec):
    """Forward-difference blocks Hxx, Hxv, Hvx, Hvv at the window nodes
    (x, v of shape (m, d), t of shape (m,)).

    Each has shape (m, d, d), with ``Hxv[k, a, b] = d(Lx)_a / dv_b`` at
    window node k, and so on.  The callbacks are pointwise, so moving
    component c of x (or of v) at every node at once gives column c of
    every node's block in one call: 4*d + 2 callback calls in all.  The
    step is ``FD_STEP * (1 + |.|)`` per entry, as in the solver.
    """
    lx, lv = _lagrangian_values(lag, x, v, t)
    shape = lx.shape
    dim = shape[1]
    blocks = np.empty((2, 2) + shape + (dim,))  # [Lx or Lv, by x or by v]
    for by, base in enumerate((x, v)):
        steps = FD_STEP * (1.0 + np.abs(base))
        for c in range(dim):
            moved = base.copy()
            moved[:, c] += steps[:, c]
            args = (moved, v, t) if by == 0 else (x, moved, t)
            step = steps[:, c, None]
            blocks[0, by, :, :, c] = (_call(lag.Lx, "Lx", shape, *args) - lx) / step
            blocks[1, by, :, :, c] = (_call(lag.Lv, "Lv", shape, *args) - lv) / step
    return blocks[0, 0], blocks[0, 1], blocks[1, 0], blocks[1, 1]


def discrete_functional(
    lag: Lagrangian, q: Trajectory, sigma: int, alpha: float | None = None
) -> float:
    """h * sum over I_sigma of L(Q_k, v_k, t_k), with the velocity
    v = -sigma delta^alpha_sigma Q (delta_sigma Q at alpha = None or 1)."""
    sigma = check_sigma(sigma)
    _check_dims(lag, q)
    vseq = discrete_velocity_alpha(q, sigma, _unit_order(alpha))
    rows = _rows(sigma, q.grid.n)
    lvals = _call(lag.L, "L", (q.grid.n,), q.values[rows], vseq.values, q.grid.nodes[rows])
    return gauss_quadrature(ShiftedSequence(q.grid, sigma, lvals))


def functional_gradient(
    lag: Lagrangian, q: Trajectory, sigma: int, alpha: float | None = None
) -> ResidualField:
    """Gradient of the discrete functional: G_k = (1/h) dL_h/dQ_k, k interior.

    Assembled analytically: the Lx term lands at its own node and the Lv
    sequence is scattered through the transpose of the velocity map's
    kernel (the adjoint, which acts as the opposite-side operator).  This
    is exactly the variational-integrator residual.
    """
    check_sigma(sigma)
    _check_dims(lag, q)
    gradient = _gradient(q.grid, sigma, _unit_order(alpha))
    return ResidualField(q.grid, 1, gradient(lag, q.values))


def _gradient(grid: Grid, sigma: int, alpha: float):
    """Array core of :func:`functional_gradient` for one grid:
    ``gradient(lag, values)``, node values (n+1, d) in, the gradient at the
    interior nodes (n-1, d) out, arguments unchecked.  It holds the
    velocity, the signed scale -sigma h^-alpha, the adjoint and the window
    rows."""
    n = grid.n
    rows, inner = _rows(sigma, n), _outer_rows(-sigma, n)  # inner: interior nodes' rows
    nodes = grid.nodes[rows]
    velocity = _velocity(alpha, sigma, grid)
    # d v_k / d Q_j = -sigma * h^-alpha * K[k, j], so the adjoint is K's
    # interior columns, transposed
    factor, adjoint = -sigma * _scale(grid.h, alpha), _operator(alpha, n, sigma, True)

    def gradient(lag: Lagrangian, values: Vec) -> Vec:
        lx, lv = _lagrangian_values(lag, values[rows], velocity(values), nodes)
        return lx[inner] + adjoint(lv) * factor

    return gradient
