"""Independent reference computations used only by the tests.

Everything here deliberately avoids the library's assembly code paths:
functional gradients come from central finite differences of the scalar
functional, Newton Jacobians from forward differences of the residual,
linear systems are probed column by column and solved with numpy's LAPACK
bindings, and exact solutions are closed forms.
"""

from __future__ import annotations

import math

import numpy as np

import fracvi as fv


def random_trajectory(rng, grid, dim=1, scale=1.0):
    return fv.Trajectory(grid, scale * rng.standard_normal((grid.n + 1, dim)))


def coupled_lagrangian(dim=1):
    """Non-mechanical test Lagrangian with x-v coupling and explicit time.

    Written on arrays: x, v of shape (..., d) and t of shape (...).
    """

    def dot(a, b):
        return np.sum(a * b, axis=-1)

    def L(x, v, t):
        return 0.5 * dot(v, v) + np.sin(t) * dot(x, v) - 0.25 * dot(x, x) ** 2

    def Lx(x, v, t):
        return np.sin(t)[..., None] * v - dot(x, x)[..., None] * x

    def Lv(x, v, t):
        return v + np.sin(t)[..., None] * x

    return fv.Lagrangian(L=L, Lx=Lx, Lv=Lv, dim=dim, name="coupled")


def fd_functional_gradient(lag, traj, sigma, alpha=None, rel_step=1e-6):
    """Central finite differences of the discrete functional at the interior
    nodes, scaled by 1/h to match the analytic gradient convention."""
    n, d = traj.grid.n, traj.dim
    base = np.array(traj.values)
    h = traj.grid.h
    out = np.empty((n - 1, d))
    for j in range(1, n):
        for c in range(d):
            step = rel_step * (1.0 + abs(base[j, c]))
            up = base.copy()
            up[j, c] += step
            down = base.copy()
            down[j, c] -= step
            plus = fv.discrete_functional(lag, fv.Trajectory(traj.grid, up), sigma, alpha)
            minus = fv.discrete_functional(lag, fv.Trajectory(traj.grid, down), sigma, alpha)
            out[j - 1, c] = (plus - minus) / (2.0 * step) / h
    return out


def fd_lagrangian_partials(lag, x, v, t, rel_step=1e-6):
    """Central-difference estimates of Lx and Lv at one phase point."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    d = x.shape[0]
    lx = np.empty(d)
    lv = np.empty(d)
    for c in range(d):
        step = rel_step * (1.0 + abs(x[c]))
        xp, xm = x.copy(), x.copy()
        xp[c] += step
        xm[c] -= step
        lx[c] = (lag.L(xp, v, t) - lag.L(xm, v, t)) / (2.0 * step)
        step = rel_step * (1.0 + abs(v[c]))
        vp, vm = v.copy(), v.copy()
        vp[c] += step
        vm[c] -= step
        lv[c] = (lag.L(x, vp, t) - lag.L(x, vm, t)) / (2.0 * step)
    return lx, lv


def interior_residual(kind, lag, grid, qa, qb):
    """The residual of ``kind`` as a map of the flattened interior nodes,
    with the end nodes pinned at ``qa`` and ``qb`` (shape (1, d))."""

    def fun(x):
        vals = np.vstack([qa, x.reshape(grid.n - 1, lag.dim), qb])
        return fv.assemble_residual(kind, lag, fv.Trajectory(grid, vals)).values.ravel()

    return fun


def column_fd_jacobian(fun, x, r, rel_step=1e-6):
    """Forward-difference Jacobian of ``fun`` at ``x`` (``r = fun(x)``), one
    residual call per unknown, step rel_step * (1 + |x_j|)."""
    jac = np.empty((r.size, x.size))
    for j in range(x.size):
        step = rel_step * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += step
        jac[:, j] = (fun(xp) - r) / step
    return jac


def colored_fd_jacobian(fun, x, r, dim, rel_step=1e-6):
    """The Jacobian of :func:`column_fd_jacobian` for a three-point stencil,
    from min(3, nodes) * dim residual calls.

    ``x`` holds nodes of ``dim`` components and the residual rows come in
    the same blocks; the unknowns of node i move only row blocks i-1 .. i+1.
    Nodes three apart share no row, so they are perturbed in one call, one
    component at a time (Curtis, Powell & Reid 1974), and each entry is the
    same quotient as in the one-column-per-call build.
    """
    nodes = x.size // dim
    stride = min(3, nodes) * dim
    steps = rel_step * (1.0 + np.abs(x))
    jac = np.zeros((r.size, x.size))
    for first in range(stride):
        xp = x.copy()
        xp[first::stride] += steps[first::stride]
        dr = fun(xp) - r
        for j in range(first, x.size, stride):
            node = j // dim
            lo, hi = max(node - 1, 0) * dim, min(node + 2, nodes) * dim
            jac[lo:hi, j] = dr[lo:hi] / steps[j]
    return jac


def dense_from_bands(bands):
    """The dense matrix of block diagonals laid out as
    ``fracvi.schemes.jacobian`` returns them for a classical kind."""
    _, nodes, d, _ = bands.shape
    dense = np.zeros((nodes, d, nodes, d))
    i = np.arange(nodes)
    dense[i[1:], :, i[:-1]] = bands[0, 1:]
    dense[i, :, i] = bands[1]
    dense[i[:-1], :, i[1:]] = bands[2, :-1]
    return dense.reshape(nodes * d, nodes * d)


def harmonic_exact(omega, a, b, qa, qb):
    """Solution of q'' = -omega^2 q hitting qa at a and qb at b."""
    span = b - a
    coef_b = (qb - qa * math.cos(omega * span)) / math.sin(omega * span)

    def exact(t):
        return qa * math.cos(omega * (t - a)) + coef_b * math.sin(omega * (t - a))

    return exact


def probe_linear_system(residual_fn, size):
    """Recover (A, c) of an affine residual map by evaluating basis vectors."""
    c = residual_fn(np.zeros(size))
    a = np.empty((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        a[:, j] = residual_fn(e) - c
    return a, c


def observed_orders(ns, errors):
    out = []
    for i in range(len(ns) - 1):
        out.append(math.log(errors[i] / errors[i + 1]) / math.log(ns[i + 1] / ns[i]))
    return out


def fresh_jacobian_march(lag, grid, q0, q1, tol, max_iter=50, rel_step=1e-6):
    """March the backward direct scheme from (Q_0, Q_1), rebuilding the step
    Jacobian at every Newton iteration.

    Each step solves Lx(Q_k, v_k, t_k) - (Lv(Q_k, v_k, t_k) - Lv_{k-1})/h = 0,
    v_k = (Q_k - Q_{k-1})/h, for Q_k from the extrapolation 2 Q_{k-1} - Q_{k-2}
    by damped Newton: forward differences one column at a time (step
    rel_step * (1 + |x|)), a LAPACK solve, and a step halved until the
    residual inf-norm decreases.  Returns the (n+1, d) node values.
    """
    hinv = 1.0 / grid.h
    vals = np.empty((grid.n + 1, lag.dim))
    vals[0] = q0
    vals[1] = q1
    for k in range(2, grid.n + 1):
        t_k, t_prev = grid.node(k), grid.node(k - 1)
        lv_prev = lag.Lv(vals[k - 1], (vals[k - 1] - vals[k - 2]) * hinv, t_prev)

        def res(x):
            v = (x - vals[k - 1]) * hinv
            return np.asarray(lag.Lx(x, v, t_k) - (lag.Lv(x, v, t_k) - lv_prev) * hinv)

        x = 2.0 * vals[k - 1] - vals[k - 2]
        r = res(x)
        for _ in range(max_iter):
            if np.max(np.abs(r)) <= tol:
                break
            steps = rel_step * (1.0 + np.abs(x))
            jac = np.empty((x.size, x.size))
            for j in range(x.size):
                xp = x.copy()
                xp[j] += steps[j]
                jac[:, j] = (res(xp) - r) / steps[j]
            delta = np.linalg.solve(jac, -r)
            t = 1.0
            for _ in range(40):
                r_trial = res(x + t * delta)
                if np.max(np.abs(r_trial)) < np.max(np.abs(r)):
                    break
                t *= 0.5
            else:
                raise RuntimeError(f"oracle march stalled at step k={k}")
            x, r = x + t * delta, r_trial
        else:
            raise RuntimeError(f"oracle march did not converge at step k={k}")
        vals[k] = x
    return vals
