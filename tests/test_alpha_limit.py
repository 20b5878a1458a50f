"""The alpha -> 1- limit across the layout switch.  At alpha = 1 the
fractional kinds take the classical path: two-point differences and a
banded Jacobian.  Just below 1 they take the dense GL kernel, the dense
Jacobian and its Gram branch.  This property checks that the two paths
meet, to first order in eps = 1 - alpha, for the residual, the Jacobian
and the solve.

For the mechanical problems (Lv = v, Hvv = I, Lx free of v) both
fractional residuals read R = lx - sigma s K_o v with v = -sigma s K Q,
s = h^-alpha, K the velocity kernel of side sigma and K_o the kernel of
side -sigma one size down (the velocity adjoint, by discrete integration
by parts).  At alpha = 1 the weights have the derivative w'_0 = 0, w'_1 =
-1 and w'_r = 1/(r (r - 1)) for r >= 2, and s' = ln(1/h) s.  So the test
writes the derivatives at alpha = 1 out by the product rule over the
Toeplitz kernels of w and w', with no call into the package's GL code:
R', the Jacobian's J' (J = diag(Hxx) + s^2 K_i^T K_i kron I, with K_i =
K[:, 1:n]) and the solution's Q' = -J^-1 R'.  Each quantity X must meet
X(1 - eps) - X(1) = -eps X' to 2% of |X'| at eps 1e-3 to 1e-6, so its
gap / eps is constant to 2% there; at eps = 1e-13 the remainder must stay
within a rounding bound stated below for each quantity.  A scale left at
h^-1 below alpha = 1, or w_1 fixed at -1, moves the slopes and fails it.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fracvi as fv
from fracvi.lagrangians import FD_NOISE
from fracvi.schemes import SchemeFamily, SchemeKind, assemble_residual, jacobian
from fracvi.solver import BVPProblem, NewtonConfig, solve_bvp_newton
from oracles import dense_from_bands, gl_kernel

EPSILONS = (1e-3, 1e-4, 1e-5, 1e-6)
TINY = 1e-13
SLOPE_RTOL = 0.02
U = np.finfo(float).eps / 2  # unit roundoff


def _unit_weights(n):
    """The GL weights at alpha = 1 and their alpha-derivative there."""
    w, dw = np.zeros(n + 1), np.zeros(n + 1)
    w[:2] = 1.0, -1.0
    dw[1] = -1.0
    r = np.arange(2, n + 1)
    dw[2:] = 1.0 / (r * (r - 1.0))
    return w, dw


def _slopes(sigma, grid, values):
    """R', J' and max |v| at alpha = 1 on ``values`` for a mechanical
    Lagrangian, from the kernels of w and w' written out entry by entry."""
    n, s, log = grid.n, 1.0 / grid.h, math.log(1.0 / grid.h)
    w, dw = _unit_weights(n)
    k, dk = gl_kernel(w, n, sigma), gl_kernel(dw, n, sigma)
    ko, dko = gl_kernel(w[:n], n - 1, -sigma), gl_kernel(dw[:n], n - 1, -sigma)
    v = -sigma * s * (k @ values)
    dv = log * v - sigma * s * (dk @ values)
    dr = -sigma * s * (log * (ko @ v) + dko @ v + ko @ dv)
    ki, dki = k[:, 1:n], dk[:, 1:n]
    dgram = s * s * (2.0 * log * (ki.T @ ki) + dki.T @ ki + ki.T @ dki)
    return dr, np.kron(dgram, np.eye(values.shape[1])), np.abs(v).max()


def _dense(kind, lag, q):
    jac = jacobian(kind, lag, q)
    return dense_from_bands(jac) if jac.ndim == 4 else jac


@settings(max_examples=24, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.VARIATIONAL_FRACTIONAL]),
       st.sampled_from([fv.MINUS, fv.PLUS]), st.sampled_from(["harmonic", "pendulum"]),
       st.integers(8, 256), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_fractional_kinds_meet_their_alpha_one_forms(family, sigma, problem, n, d, seed):
    rng = np.random.default_rng(seed)
    grid = fv.make_grid(0.0, 1.0, n)
    lag = fv.builtin_problem(problem, omega=1.5, dim=d)
    q = fv.Trajectory(grid, rng.uniform(-2.0, 2.0, (n + 1, d)))
    qa, qb = rng.uniform(-1.0, 1.0, (2, d))
    unit, s = SchemeKind(family, sigma, 1.0), 1.0 / grid.h

    def solve(kind):
        bvp = BVPProblem(grid, lag, kind, qa, qb)
        traj, _ = solve_bvp_newton(bvp, config=NewtonConfig(tol=1e-10))
        return traj, np.abs(assemble_residual(kind, lag, traj).values).max()

    dr, dj, vmax = _slopes(sigma, grid, q.values)
    r1, j1 = assemble_residual(unit, lag, q).values, _dense(unit, lag, q)
    sol1, res1 = solve(unit)
    j_sol = _dense(unit, lag, sol1)
    dq = -np.linalg.solve(j_sol, _slopes(sigma, grid, sol1.values)[0].ravel()).reshape(n - 1, d)
    inverse = np.abs(np.linalg.inv(j_sol)).sum(axis=1).max()

    # rounding: a dense GL sum of n terms with sum |w_r| <= 2, once in the
    # velocity and once in the outer operator; the Hessian blocks' forward
    # quotients, FD_NOISE each; a solve's remaining residuals through J^-1
    lx = np.abs(lag.Lx(q.values, 0.0 * q.values, grid.nodes)).max()
    round_r = 4.0 * n * U * (lx + 2.0 * s * vmax + 4.0 * s * s * np.abs(q.values).max())
    round_j = 2.0 * (FD_NOISE + 4.0 * n * U) * 4.0 * s * s

    for eps in EPSILONS + (TINY,):
        kind = SchemeKind(family, sigma, 1.0 - eps)
        near_sol, res = solve(kind)
        pairs = [
            ("residual", assemble_residual(kind, lag, q).values, r1, dr, round_r),
            ("jacobian", jacobian(kind, lag, q), j1, dj, round_j),
            ("solve", near_sol.values[1:-1], sol1.values[1:-1], dq,
             2.0 * inverse * (res + res1 + 2.0 * round_r)),
        ]
        for name, near, at_one, slope, rounding in pairs:
            # X(1 - eps) - X(1) + eps X', the part that is not first order
            remainder = np.abs(near - at_one + eps * slope).max()
            size = np.abs(slope).max()
            if eps == TINY:
                assert remainder <= rounding, (name, remainder, rounding)
            else:
                gap = np.abs(near - at_one).max()
                assert abs(gap / eps - size) <= SLOPE_RTOL * size, (name, eps, gap / eps, size)
                assert remainder <= SLOPE_RTOL * eps * size, (name, eps, remainder / (eps * size))
