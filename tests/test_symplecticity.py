"""The claim as symplecticity of the alpha = 1 marches.

A variational integrator's one-step map (Q_{k-1}, Q_k) -> (Q_k, Q_{k+1})
keeps the discrete symplectic form dQ_{k-1}^T M_k dQ_k, with the d x d
matrix M_k = D1 D2 L_d on cell k (Marsden & West, Acta Numerica 10, 2001;
Hairer, Lubich & Wanner, *Geometric Numerical Integration*, 2006, ch. VI).
So the n-step map (Q_0, Q_1) -> (Q_{n-1}, Q_n) has the determinant
omega_1 / omega_n, with omega_k = det M_k.  The vi-classical march and the
asymmetric-direct one, which is the same scheme, keep it; the
direct-classical march, which embeds the Euler-Lagrange equation on one
side only, misses it at first order in h.

The cell Lagrangian of the sigma - scheme is L_d = h L(Q_k, v_k, t_k) with
v_k = (Q_k - Q_{k-1})/h, so M_k = -(dLx/dv + dLv/dv / h) at node k; that
of sigma + is h L(Q_{k-1}, v_k, t_{k-1}), so M_k = dLv/dx - dLv/dv / h at
node k - 1.  For a mechanical Lagrangian M_k = -I/h on every cell and the
determinant is 1.  For ``oracles.coupled_lagrangian``, whose dLx/dv and
dLv/dx are sin(t) I, omega_k is written out below.
"""

import math

import numpy as np
import pytest

import fracvi as fv
from fracvi.schemes import SchemeFamily, SchemeKind
from oracles import coupled_lagrangian

VARIATIONAL = (SchemeFamily.VARIATIONAL_CLASSICAL, SchemeFamily.ASYMMETRIC_DIRECT)
PROBLEMS = [("harmonic", 1), ("pendulum", 1), ("coupled", 1), ("harmonic", 2)]
#: The difference step in (Q_0, Q_1) and each march step's Newton target.
EPS, TOL = 1e-4, 1e-12


def omega(problem, sigma, grid, k, d):
    """det M_k on cell k, in closed form."""
    h = grid.h
    if problem != "coupled":
        return (-1.0 / h) ** d
    if sigma == fv.MINUS:
        return (-(math.sin(grid.nodes[k]) + 1.0 / h)) ** d
    return (math.sin(grid.nodes[k - 1]) - 1.0 / h) ** d


def map_determinant(kind, lag, grid, q0, q1):
    """det of d(Q_{n-1}, Q_n) / d(Q_0, Q_1), by central differences of
    ``march`` with the step EPS in each of the 2 d starting values."""
    d = lag.dim
    start = np.concatenate([q0, q1])
    config = fv.NewtonConfig(tol=TOL)
    columns = []
    for i in range(2 * d):
        ends = []
        for step in (EPS, -EPS):
            moved = start.copy()
            moved[i] += step
            traj, _ = fv.march(kind, lag, grid, moved[:d], moved[d:], config)
            ends.append(traj.values[-2:].ravel())
        columns.append((ends[0] - ends[1]) / (2 * EPS))
    return np.linalg.det(np.array(columns).T)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("problem,d", PROBLEMS, ids=[f"{p}-{d}" for p, d in PROBLEMS])
@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS], ids=["plus", "minus"])
@pytest.mark.parametrize("family", list(VARIATIONAL) + [SchemeFamily.DIRECT_CLASSICAL],
                         ids=lambda f: f.value)
def test_alpha_one_march_keeps_the_discrete_symplectic_form(family, sigma, problem, d, n):
    # a perturbation EPS of Q_1 moves the starting velocity by n EPS, so the
    # central differences are off by about (n EPS)^2 times the map's third
    # derivatives, and each march step's Newton target TOL moves the ends
    # by about TOL and the quotients by TOL / EPS, times the n of the
    # map's entries: the VI marches keep the determinant within
    # (n EPS)^2 + n TOL / EPS, and direct-classical misses it by at least
    # h / 8 and by twenty such bounds
    grid = fv.make_grid(0.0, 1.0, n)
    if problem == "coupled":
        lag = coupled_lagrangian(d)
    else:
        lag = fv.builtin_problem(problem, omega=2.0, dim=d)
    q0 = np.linspace(0.3, 0.6, d)
    q1 = q0 + 0.4 * grid.h * np.linspace(1.0, -1.0, d)
    det = map_determinant(SchemeKind(family, sigma), lag, grid, q0, q1)
    miss = abs(det * omega(problem, sigma, grid, n, d) / omega(problem, sigma, grid, 1, d) - 1.0)
    bound = (n * EPS) ** 2 + n * TOL / EPS
    if family in VARIATIONAL:
        assert miss <= bound
    else:
        assert miss >= max(grid.h / 8, 20 * bound)
