"""The claim as a Helmholtz condition: a gradient has a symmetric Jacobian.

The residual of a variational scheme is the gradient of a discrete action,
so its Jacobian is a Hessian and symmetric.  The discrete Helmholtz
conditions (Bourdin & Cresson, "Helmholtz's inverse problem of the
discrete calculus of variations", J. Difference Equ. Appl. 19, 2013) say
which discrete Euler-Lagrange equations derive from some discrete
Lagrangian.  The check here uses no multiplier: it asks whether each
kind's own residual R is itself a gradient, reading that residual only,
never its twin's.  So it asks whether a direct scheme is a gradient at
all, where coherence asks only whether it equals the variational one.

- The four coherent kinds (vi-classical, asymmetric-direct,
  direct-fractional, vi-fractional) have a symmetric differenced Jacobian,
  up to the noise of the differencing.
- Direct-classical does not.  Its row of node m - sigma is vi-classical's
  row of node m with Lx read at node m - sigma instead.  That moves the
  block Hxx = dLx/dx of node m - sigma one block off the diagonal, and
  the Hxv terms that come with it cancel in J - J^T, as Hxv is symmetric
  for every Lagrangian here.  So max |J - J^T| is the largest entry of
  Hxx over the interior nodes of its window.
- The structured ``schemes.jacobian`` is exactly symmetric for a
  mechanical Lagrangian, and within the error of its forward quotients
  for ``oracles.coupled_lagrangian``.  Both fractional families take that
  one Jacobian, so only the differenced one is evidence for
  direct-fractional.
"""

import numpy as np
import pytest

import fracvi as fv
from fracvi.lagrangians import FD_NOISE, FD_STEP
from fracvi.schemes import SchemeFamily, SchemeKind
from oracles import coupled_lagrangian, dense_from_bands, interior_residual

EPS = np.finfo(float).eps
#: Relative step of the central differences: an entry x moves by REL_STEP * (1 + |x|).
REL_STEP = 1e-5
COHERENT = [
    (SchemeFamily.VARIATIONAL_CLASSICAL, None),
    (SchemeFamily.ASYMMETRIC_DIRECT, None),
    (SchemeFamily.DIRECT_FRACTIONAL, 0.5),
    (SchemeFamily.DIRECT_FRACTIONAL, 1.0),
    (SchemeFamily.VARIATIONAL_FRACTIONAL, 0.5),
    (SchemeFamily.VARIATIONAL_FRACTIONAL, 1.0),
]
COHERENT_IDS = [f"{family.value}-{alpha}" if alpha else family.value for family, alpha in COHERENT]
PROBLEMS = ["harmonic", "pendulum", "coupled"]
MECHANICAL = ["harmonic", "pendulum"]


def lagrangian(problem, d):
    if problem == "harmonic":
        return fv.harmonic_oscillator(1.5, d)
    if problem == "pendulum":
        return fv.pendulum(2.0, d)
    return coupled_lagrangian(d)


def trajectory(n, d):
    """A seeded random trajectory on [0, 1]."""
    rng = np.random.default_rng(1000 * n + d)
    return fv.Trajectory(fv.make_grid(0.0, 1.0, n), rng.standard_normal((n + 1, d)))


def differenced_jacobian(kind, lag, q):
    """Central differences of ``kind``'s own residual in the interior nodes."""
    fun = interior_residual(kind, lag, q.grid, q.values[:1], q.values[-1:])
    x = q.values[1:-1].ravel()
    columns = []
    for j in range(x.size):
        step = REL_STEP * (1.0 + abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j] += step
        down[j] -= step
        columns.append((fun(up) - fun(down)) / (2.0 * step))
    return np.array(columns).T


def asymmetry(jac):
    return float(np.max(np.abs(jac - jac.T)))


def cases(test):
    """``test`` parametrized over n, d, the problem and sigma."""
    for mark in (
        pytest.mark.parametrize("n", [16, 64]),
        pytest.mark.parametrize("d", [1, 2]),
        pytest.mark.parametrize("problem", PROBLEMS),
        pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS], ids=["plus", "minus"]),
    ):
        test = mark(test)
    return test


@cases
@pytest.mark.parametrize("family,alpha", COHERENT, ids=COHERENT_IDS)
def test_coherent_residual_is_a_gradient(family, alpha, sigma, problem, d, n):
    # Each quotient's rounding is a few eps times the residual's terms,
    # which are at most about max|J| max|Q|, over a step of at least
    # REL_STEP; its truncation, REL_STEP^2 (1 + |Q|)^2 |R'''| / 6, is far
    # below that, as max|J| grows like 2 / h^2.
    q = trajectory(n, d)
    jac = differenced_jacobian(SchemeKind(family, sigma, alpha), lagrangian(problem, d), q)
    bound = 8.0 * EPS / REL_STEP * (1.0 + np.abs(q.values).max())
    assert asymmetry(jac) <= bound * np.abs(jac).max()


@cases
def test_direct_classical_asymmetry_is_the_largest_hxx(sigma, problem, d, n):
    kind = SchemeKind(SchemeFamily.DIRECT_CLASSICAL, sigma)
    lag, q = lagrangian(problem, d), trajectory(n, d)
    jac = differenced_jacobian(kind, lag, q)
    # Hxx by central differences of Lx in x at each interior node of the
    # residual's window, at that node's velocity
    velocity = fv.discrete_velocity(q, sigma)
    window = fv.assemble_residual(kind, lag, q).indices
    largest = 0.0
    for m in set(window) & set(range(1, n)):
        x, v, t = q.value_at(m), velocity.value_at(m), q.grid.node(m)
        for b in range(d):
            step = REL_STEP * (1.0 + abs(x[b]))
            up, down = x.copy(), x.copy()
            up[b] += step
            down[b] -= step
            column = (lag.Lx(up, v, t) - lag.Lx(down, v, t)) / (2.0 * step)
            largest = max(largest, float(np.abs(column).max()))
    assert asymmetry(jac) == pytest.approx(largest, rel=0.01)


@cases
@pytest.mark.parametrize("family,alpha", COHERENT, ids=COHERENT_IDS)
def test_structured_jacobian_is_symmetric(family, alpha, sigma, problem, d, n):
    lag, q = lagrangian(problem, d), trajectory(n, d)
    jac = fv.schemes.jacobian(SchemeKind(family, sigma, alpha), lag, q)
    if jac.ndim == 4:  # alpha = 1: block diagonals
        jac = dense_from_bands(jac)
    if problem in MECHANICAL:
        assert asymmetry(jac) == 0.0
        return
    # The coupled Lagrangian's Hxx, from a forward quotient of Lx with the
    # step FD_STEP (1 + |x_b|), misses by that step times half of
    # d^2 Lx_a / dx_b^2 = -2 x_a off the diagonal (d > 1 only), so
    # Hxx_ab - Hxx_ba by at most 2 FD_STEP (1 + max|Q|) max|Q|.
    # Its Lx is linear in v and its Lv in x, so Hxv and Hvx miss only by
    # the rounding of two values over the step, FD_NOISE times the terms of
    # Lx (|v| and |Q|^3) or of Lv (|v| and |Q|); each enters J times the
    # scale s = h^-alpha and a GL weight of at most 1.
    order = 1.0 if alpha is None else alpha
    qmax = np.abs(q.values).max()
    vmax = np.abs(fv.discrete_velocity_alpha(q, sigma, order).values).max()
    hxx = FD_STEP * (1.0 + qmax) * 2.0 * qmax if d > 1 else 0.0
    mixed = q.grid.h ** -order * FD_NOISE * (2.0 * vmax + qmax ** 3 + qmax)
    assert asymmetry(jac) <= 2.0 * (hxx + mixed)
