"""Lagrangian evaluation interface, built-in problems, and discrete
Lagrangian functionals with their analytic gradients.

A Lagrangian is supplied as three callables L, Lx, Lv of (x, v, t); no
automatic differentiation is involved, which keeps the C2 contract directly
testable against finite differences.  The callables work on arrays: x and v
have shape (..., d) and t has shape (...); L returns shape (...) and Lx, Lv
return shape (..., d).  One call thus serves a single node (a (d,) vector
and a scalar t) or a whole window of m nodes ((m, d) and (m,)), and each
assembly below makes one Lx and one Lv call.  The discrete functional
gradient is assembled analytically from the chain rule, its fractional
adjoint from the velocity's cached GL kernel.  The Newton Jacobian's
pointwise Hessian blocks are forward differences of Lx and Lv with the
relative step FD_STEP, the one the solver uses; finite-difference gradients
of the functional are a test oracle only and live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffops import discrete_velocity, gauss_quadrature, seq_delta
from .fracops import _check_unit_alpha, _kernel, _scale
from .fracops import discrete_velocity_alpha
from .fracops import gl_coefficients  # noqa: F401  perfbench/tracer.py patches it here
from .grids import (
    MINUS,
    DomainError,
    ResidualField,
    ShiftedSequence,
    Trajectory,
    check_sigma,
)

Vec = np.ndarray
#: L(x, v, t) with x, v of shape (..., d) and t of shape (...); returns (...).
ScalarFn = Callable[[Vec, Vec, Vec], Vec]
#: Lx or Lv(x, v, t), arguments as for ScalarFn; returns shape (..., d).
VectorFn = Callable[[Vec, Vec, Vec], Vec]

#: Relative forward-difference step: an entry y moves by FD_STEP * (1 + |y|).
FD_STEP = 1e-6


@dataclass(frozen=True, kw_only=True)
class Lagrangian:
    """L(x, v, t) with its partial derivatives Lx = dL/dx and Lv = dL/dv,
    each evaluated row by row on x, v of shape (..., d) and t of shape (...)."""

    L: ScalarFn
    Lx: VectorFn
    Lv: VectorFn
    dim: int
    name: str = "custom"


def mechanical(
    potential: Callable[[Vec], Vec],
    grad_potential: Callable[[Vec], Vec],
    dim: int = 1,
    name: str = "mechanical",
) -> Lagrangian:
    """L(x, v, t) = |v|^2 / 2 - U(x), with Lv = v and Lx = -grad U exactly;
    U maps x of shape (..., d) to shape (...), grad U to shape (..., d)."""

    def L(x: Vec, v: Vec, t: Vec) -> Vec:
        return 0.5 * np.sum(v * v, axis=-1) - potential(x)

    def Lx(x: Vec, v: Vec, t: Vec) -> Vec:
        return -np.asarray(grad_potential(x), dtype=float)

    def Lv(x: Vec, v: Vec, t: Vec) -> Vec:
        return np.array(v, dtype=float)

    return Lagrangian(L=L, Lx=Lx, Lv=Lv, dim=dim, name=name)


def free_particle(dim: int = 1) -> Lagrangian:
    """U identically zero."""
    return mechanical(
        lambda x: 0.0,
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        dim=dim,
        name="free",
    )


def harmonic_oscillator(omega: float = 1.0, dim: int = 1) -> Lagrangian:
    """U(x) = omega^2 |x|^2 / 2."""
    w2 = float(omega) ** 2
    return mechanical(
        lambda x: 0.5 * w2 * np.sum(x * x, axis=-1),
        lambda x: w2 * np.asarray(x, dtype=float),
        dim=dim,
        name="harmonic",
    )


def pendulum(omega: float = 1.0, dim: int = 1) -> Lagrangian:
    """Smooth pendulum-type nonlinearity: U(x) = omega^2 sum_i (1 - cos x_i)."""
    w2 = float(omega) ** 2
    return mechanical(
        lambda x: w2 * np.sum(1.0 - np.cos(x), axis=-1),
        lambda x: w2 * np.sin(np.asarray(x, dtype=float)),
        dim=dim,
        name="pendulum",
    )


BUILTIN_PROBLEMS = ("free", "harmonic", "pendulum")


def builtin_problem(name: str, omega: float = 1.0, dim: int = 1) -> Lagrangian:
    """Built-in problems addressable by name (for the command line)."""
    if not np.isfinite(omega):
        raise DomainError(f"omega must be finite, got {omega}")
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


def _window(q: Trajectory, vseq: ShiftedSequence):
    """(x, v, t) over the window of vseq: shapes (n, d), (n, d) and (n,)."""
    rows = slice(vseq.k_start, vseq.k_start + q.grid.n)
    return q.values[rows], vseq.values, q.grid.nodes[rows]


def _call(fn, name: str, shape: tuple, x: Vec, v: Vec, t: Vec) -> Vec:
    """One batched callback call; a result of the wrong shape is refused."""
    out = np.asarray(fn(x, v, t), dtype=float)
    if out.shape != shape:
        raise DomainError(
            f"Lagrangian callback {name} returned shape {out.shape}, expected "
            f"{shape}: callbacks take x, v of shape (..., d) and t of shape (...)"
        )
    return out


def _lagrangian_values(lag: Lagrangian, q: Trajectory, vseq: ShiftedSequence):
    """Evaluate Lx and Lv along the trajectory over the window of vseq."""
    x, v, t = _window(q, vseq)
    shape = (q.grid.n, q.dim)
    return _call(lag.Lx, "Lx", shape, x, v, t), _call(lag.Lv, "Lv", shape, x, v, t)


def _hessian_blocks(lag: Lagrangian, q: Trajectory, vseq: ShiftedSequence):
    """Forward-difference blocks Hxx, Hxv, Hvx, Hvv over the window of vseq.

    Each has shape (n, d, d), with ``Hxv[k, a, b] = d(Lx)_a / dv_b`` at
    window node k, and so on.  The callbacks are pointwise, so moving
    component c of x (or of v) at every node at once gives column c of
    every node's block in one call: 4*d + 2 callback calls in all.  The
    step is ``FD_STEP * (1 + |.|)`` per entry, as in the solver.
    """
    lx, lv = _lagrangian_values(lag, q, vseq)
    x, v, t = _window(q, vseq)
    shape = lx.shape
    blocks = np.empty((2, 2) + shape + (q.dim,))  # [Lx or Lv, by x or by v]
    for by, base in enumerate((x, v)):
        steps = FD_STEP * (1.0 + np.abs(base))
        for c in range(q.dim):
            moved = base.copy()
            moved[:, c] += steps[:, c]
            args = (moved, v, t) if by == 0 else (x, moved, t)
            step = steps[:, c, None]
            blocks[0, by, :, :, c] = (_call(lag.Lx, "Lx", shape, *args) - lx) / step
            blocks[1, by, :, :, c] = (_call(lag.Lv, "Lv", shape, *args) - lv) / step
    return blocks[0, 0], blocks[0, 1], blocks[1, 0], blocks[1, 1]


def _functional(lag: Lagrangian, q: Trajectory, vseq: ShiftedSequence) -> float:
    lvals = _call(lag.L, "L", (q.grid.n,), *_window(q, vseq))
    return gauss_quadrature(ShiftedSequence(q.grid, vseq.side, lvals))


def discrete_functional_classical(lag: Lagrangian, q: Trajectory, sigma: int) -> float:
    """h * sum over I_sigma of L(Q_k, (-sigma delta_sigma Q)_k, t_k)."""
    check_sigma(sigma)
    _check_dims(lag, q)
    return _functional(lag, q, discrete_velocity(q, sigma))


def discrete_functional_fractional(
    lag: Lagrangian, q: Trajectory, sigma: int, alpha: float
) -> float:
    """h * sum over I_sigma of L(Q_k, (-sigma delta^alpha_sigma Q)_k, t_k)."""
    check_sigma(sigma)
    _check_dims(lag, q)
    alpha = _check_unit_alpha(alpha)
    return _functional(lag, q, discrete_velocity_alpha(q, sigma, alpha))


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
    n = q.grid.n
    if alpha is None:
        lx, lv = _lagrangian_values(lag, q, discrete_velocity(q, sigma))
        # the alpha = 1 kernel is the two-point difference on the other side
        adj_lv = seq_delta(ShiftedSequence(q.grid, sigma, lv), -sigma).values
    else:
        alpha = _check_unit_alpha(alpha)
        lx, lv = _lagrangian_values(lag, q, discrete_velocity_alpha(q, sigma, alpha))
        # d v_k / d Q_j = -sigma * h^-alpha * K[k, j], so the adjoint is K's
        # interior columns, transposed; the contiguous copy keeps the
        # product's bits.
        adj = np.ascontiguousarray(_kernel(alpha, n, sigma)[:, 1:n].T)
        adj_lv = _scale(q.grid.h, alpha) * (adj @ lv)
    # rows of I_sigma corresponding to interior nodes 1..n-1
    interior = slice(0, n - 1) if sigma == MINUS else slice(1, n)
    return ResidualField(q.grid, 1, lx[interior] - sigma * adj_lv)
