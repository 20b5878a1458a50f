"""Lagrangian evaluation interface, built-in problems, and discrete
Lagrangian functionals with their analytic gradients.

A Lagrangian is supplied as three callables L, Lx, Lv of (x, v, t); no
automatic differentiation is involved, which keeps the C2 contract directly
testable against finite differences.  The discrete functional gradient is
assembled analytically from the chain rule; finite-difference gradients are
a test oracle only and live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffops import discrete_velocity, gauss_quadrature
from .fracops import _check_unit_alpha, _minus_matrix, _plus_matrix
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
ScalarFn = Callable[[Vec, Vec, float], float]
VectorFn = Callable[[Vec, Vec, float], Vec]


@dataclass(frozen=True, kw_only=True)
class Lagrangian:
    """L(x, v, t) with its partial derivatives Lx = dL/dx and Lv = dL/dv."""

    L: ScalarFn
    Lx: VectorFn
    Lv: VectorFn
    dim: int
    name: str = "custom"


@dataclass(frozen=True, kw_only=True)
class MechanicalLagrangian(Lagrangian):
    """L(x, v, t) = |v|^2 / 2 - U(x), with Lv = v and Lx = -grad U exactly."""

    potential: Callable[[Vec], float]
    grad_potential: Callable[[Vec], Vec]


def mechanical(
    potential: Callable[[Vec], float],
    grad_potential: Callable[[Vec], Vec],
    dim: int = 1,
    name: str = "mechanical",
) -> MechanicalLagrangian:
    """Build the mechanical Lagrangian for a given potential."""

    def L(x: Vec, v: Vec, t: float) -> float:
        return 0.5 * float(np.dot(v, v)) - float(potential(x))

    def Lx(x: Vec, v: Vec, t: float) -> Vec:
        return -np.asarray(grad_potential(x), dtype=float)

    def Lv(x: Vec, v: Vec, t: float) -> Vec:
        return np.array(v, dtype=float)

    return MechanicalLagrangian(
        L=L, Lx=Lx, Lv=Lv, dim=dim, name=name,
        potential=potential, grad_potential=grad_potential,
    )


def free_particle(dim: int = 1) -> MechanicalLagrangian:
    """U identically zero."""
    return mechanical(
        lambda x: 0.0,
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        dim=dim,
        name="free",
    )


def harmonic_oscillator(omega: float = 1.0, dim: int = 1) -> MechanicalLagrangian:
    """U(x) = omega^2 |x|^2 / 2."""
    w2 = float(omega) ** 2
    return mechanical(
        lambda x: 0.5 * w2 * float(np.dot(x, x)),
        lambda x: w2 * np.asarray(x, dtype=float),
        dim=dim,
        name="harmonic",
    )


def pendulum(omega: float = 1.0, dim: int = 1) -> MechanicalLagrangian:
    """Smooth pendulum-type nonlinearity: U(x) = omega^2 sum_i (1 - cos x_i)."""
    w2 = float(omega) ** 2
    return mechanical(
        lambda x: w2 * float(np.sum(1.0 - np.cos(x))),
        lambda x: w2 * np.sin(np.asarray(x, dtype=float)),
        dim=dim,
        name="pendulum",
    )


BUILTIN_PROBLEMS = ("free", "harmonic", "pendulum")


def builtin_problem(name: str, omega: float = 1.0, dim: int = 1) -> MechanicalLagrangian:
    """Built-in problems addressable by name (for the command line)."""
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


def _lagrangian_values(lag: Lagrangian, q: Trajectory, vseq: ShiftedSequence):
    """Evaluate Lx and Lv along the trajectory over the window of vseq."""
    nodes = q.grid.nodes
    lx = np.empty((q.grid.n, q.dim))
    lv = np.empty((q.grid.n, q.dim))
    for row, k in enumerate(vseq.indices):
        x = q.values[k]
        v = vseq.values[row]
        t = nodes[k]
        lx[row] = lag.Lx(x, v, t)
        lv[row] = lag.Lv(x, v, t)
    return lx, lv


def _functional(lag: Lagrangian, q: Trajectory, vseq: ShiftedSequence) -> float:
    nodes = q.grid.nodes
    lvals = [
        lag.L(q.values[k], vseq.values[row], nodes[k])
        for row, k in enumerate(vseq.indices)
    ]
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
    a_eff = 1.0 if alpha is None else _check_unit_alpha(alpha)
    n = q.grid.n
    if alpha is None:
        vseq = discrete_velocity(q, sigma)
    else:
        vseq = discrete_velocity_alpha(q, sigma, alpha)
    lx, lv = _lagrangian_values(lag, q, vseq)
    # rows of I_sigma corresponding to interior nodes 1..n-1
    interior = slice(0, n - 1) if sigma == MINUS else slice(1, n)
    scale = 1.0 / (q.grid.h ** a_eff)
    # d v_k / d Q_j = -sigma * scale * K[k, j], so the adjoint is K's interior
    # columns, transposed; the contiguous copy keeps the product's bits.
    kernel = _minus_matrix(a_eff, n) if sigma == MINUS else _plus_matrix(a_eff, n)
    adj = np.ascontiguousarray(kernel[:, 1:n].T)
    grad = lx[interior] + (-sigma) * scale * (adj @ lv)
    return ResidualField(q.grid, 1, grad)
