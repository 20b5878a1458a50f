"""Independent reference computations used only by the tests.

Everything here deliberately avoids the library's assembly code paths:
functional gradients come from central finite differences of the scalar
functional, Newton Jacobians from forward differences of the residual,
linear systems are probed column by column and solved with numpy's LAPACK
bindings, and exact solutions are closed forms.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import fracvi as fv


def random_trajectory(rng, grid, dim=1, scale=1.0):
    return fv.Trajectory(grid, scale * rng.standard_normal((grid.n + 1, dim)))


def gl_kernel(w, n, side):
    """The GL kernel of ``side`` over positions 0..n from the weights
    w_0..w_n, entry by entry: MINUS rows k = 1..n read w_{k-j}, PLUS rows
    k = 0..n-1 read w_{j-k}, zero where the index is negative."""
    rows = range(1, n + 1) if side == fv.MINUS else range(n)
    offset = (lambda k, j: k - j) if side == fv.MINUS else (lambda k, j: j - k)
    return np.array([[w[offset(k, j)] if offset(k, j) >= 0 else 0.0 for j in range(n + 1)]
                     for k in rows])


def gl_sum(q, alpha, side):
    """The GL operator of ``side`` written out term by term, with
    w = gl_coefficients(alpha, n): h^-alpha sum_r w_r Q_{k-r} at
    k = 1..n for MINUS, h^-alpha sum_r w_r Q_{k+r} at k = 0..n-1 for PLUS,
    each component one exactly rounded sum."""
    n, values = q.grid.n, q.values
    w = fv.gl_coefficients(alpha, n)
    scale = 1.0 / q.grid.h ** alpha
    rows = range(1, n + 1) if side == fv.MINUS else range(n)
    return np.array([
        [scale * math.fsum(w[r] * values[k + side * r, c]
                           for r in range(k + 1 if side == fv.MINUS else n - k + 1))
         for c in range(q.dim)]
        for k in rows
    ])


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


#: Memory layouts a callback may return its result in, by name
LAYOUTS = {
    "F": np.asfortranarray,
    "flipped": lambda a: np.flip(np.flip(a).copy()),  # negative strides
    "broadcast": lambda a: np.broadcast_to(a[..., :1], a.shape),  # zero strides
}


def relaid(lag, layout):
    """``lag`` with its ``Lv`` results in ``layout``: the same values in
    Fortran order ("F") or with negative strides ("flipped"), or the first
    component in every column, a zero-stride view ("broadcast", another
    ``Lv`` at d > 1)."""
    wrap = LAYOUTS[layout]
    return dataclasses.replace(lag, Lv=lambda x, v, t: wrap(lag.Lv(x, v, t)))


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


def _classical_partials(lag, traj, sigma):
    """Lx and Lv over I_sigma at v = -sigma * delta_sigma Q, and 1/h."""
    q, t, hinv = traj.values, traj.grid.nodes, 1.0 / traj.grid.h
    rows = slice(1, None) if sigma == fv.MINUS else slice(None, -1)  # I_sigma
    diff = (q[1:] - q[:-1]) if sigma == fv.MINUS else (q[:-1] - q[1:])
    v = -sigma * (diff * hinv)
    lx = np.asarray(lag.Lx(q[rows], v, t[rows]), dtype=float)
    lv = np.asarray(lag.Lv(q[rows], v, t[rows]), dtype=float)
    return lx, lv, hinv


def asymmetric_residual(lag, traj, sigma):
    """The asymmetric classical residual lx - sigma * delta_{-sigma} Lv at
    the interior nodes, with v = -sigma * delta_sigma Q: the package's
    former classical transcription, operation for operation, which every
    coherent classical residual must equal bit for bit."""
    lx, lv, hinv = _classical_partials(lag, traj, sigma)
    if sigma == fv.MINUS:
        return lx[:-1] - sigma * ((lv[:-1] - lv[1:]) * hinv)  # delta_plus Lv
    return lx[1:] - sigma * ((lv[1:] - lv[:-1]) * hinv)  # delta_minus Lv


def symmetric_residual(lag, traj, sigma):
    """The symmetric classical residual lx + sigma * delta_sigma Lv over its
    window ({2, .., n} for sigma = -1, {0, .., n-2} for +1), with
    v = -sigma * delta_sigma Q: the package's former transcription of the
    direct classical scheme, operation for operation, which
    ``direct-classical`` must equal bit for bit."""
    lx, lv, hinv = _classical_partials(lag, traj, sigma)
    if sigma == fv.MINUS:
        return lx[1:] + sigma * ((lv[1:] - lv[:-1]) * hinv)  # delta_minus Lv
    return lx[:-1] + sigma * ((lv[:-1] - lv[1:]) * hinv)  # delta_plus Lv


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


def chord_march(lag, grid, q0, q1, tol, max_iter=50):
    """Frozen reference for ``march_direct_classical``: the chord march
    written out plainly.  Its damped Newton loop, forward-difference
    Jacobian, 1x1 division and step residual make each numpy call in the
    obvious way (norms by reduction, every trial step scaled by t), so that
    a tuned march can be compared with it byte for byte.

    Returns ``(values, diagnostics)`` like the march, or raises
    ``NewtonConvergenceError`` with the failing step's iterate and history
    and the counters summed over every step.
    """
    NewtonDiagnostics = fv.solver.NewtonDiagnostics
    NewtonConvergenceError = fv.solver.NewtonConvergenceError

    def fd_jacobian(fun, x, r):
        steps = 1e-6 * (1.0 + np.abs(x))
        jac = np.empty((r.size, x.size))
        for j in range(x.size):
            xp = x.copy()
            xp[j] += steps[j]
            jac[:, j] = (fun(xp) - r) / steps[j]
        return jac

    def add_counts(into, other):
        into.residual_evals += other.residual_evals
        into.jacobian_builds += other.jacobian_builds
        into.backtracks += other.backtracks

    def solve(a, b):
        if b.shape == (1,):
            pivot = float(a[0, 0])
            if pivot == 0.0:
                raise fv.solver.SingularMatrixError("singular matrix")
            return np.array([float(b[0]) / pivot])
        return np.linalg.solve(a, b)

    def newton(fun, x0, held, label):
        x = np.array(x0, dtype=float)
        diag = NewtonDiagnostics()

        def counted(y):
            diag.residual_evals += 1
            return fun(y)

        r = counted(x)
        rnorm = float(abs(r).max())
        diag.records.append((0, rnorm, 0.0))
        if not math.isfinite(rnorm):
            raise NewtonConvergenceError(
                f"{label}non-finite residual ({rnorm}) at the initial iterate", x, diag
            )
        it = 0
        while not rnorm <= tol:
            it += 1
            if it > max_iter:
                raise NewtonConvergenceError(
                    f"{label}no convergence after {max_iter} iterations "
                    f"(residual {rnorm:.3e}, target {tol:.3e})",
                    x,
                    diag,
                )
            if held is None or it > 1:
                held = fd_jacobian(counted, x, r)
                diag.jacobian_builds += 1
            delta = solve(held, -r)
            t = 1.0
            for _ in range(40):
                trial = x + t * delta
                r_trial = counted(trial)
                rn_trial = float(abs(r_trial).max())
                if rn_trial < rnorm:
                    break
                diag.backtracks += 1
                if trial.tobytes() == x.tobytes():
                    break
                t *= 0.5
            if not rn_trial < rnorm:
                diag.records.append((it, rnorm, 0.0))
                raise NewtonConvergenceError(
                    f"{label}line search stalled at iteration {it} "
                    f"(residual {rnorm:.3e}, target {tol:.3e})",
                    x,
                    diag,
                )
            x, r, rnorm = trial, r_trial, rn_trial
            diag.records.append((it, rnorm, float(abs(t * delta).max())))
        diag.converged = True
        return x, diag, held

    d = lag.dim
    q0 = np.asarray(q0, dtype=float).reshape(d)
    q1 = np.asarray(q1, dtype=float).reshape(d)
    hinv = 1.0 / grid.h
    nodes = grid.nodes.tolist()
    vals = np.empty((grid.n + 1, d))
    vals[0] = q0
    vals[1] = q1
    spent = NewtonDiagnostics(converged=True)
    held = None

    def step_residual(x):
        nonlocal lv_last
        v = (x - prev) * hinv
        lx = np.asarray(lag.Lx(x, v, t_k), dtype=float)
        lv_last = lag.Lv(x, v, t_k)
        return lx - (lv_last - lv_prev) * hinv

    lv_last = np.asarray(lag.Lv(q1, (q1 - q0) * hinv, nodes[1]), dtype=float)
    for k in range(2, grid.n + 1):
        prev, t_k, lv_prev = vals[k - 1], nodes[k], lv_last
        guess = 2.0 * prev - vals[k - 2]
        try:
            vals[k], step, held = newton(step_residual, guess, held, f"march step k={k}: ")
        except NewtonConvergenceError as exc:
            add_counts(exc.diagnostics, spent)
            raise
        add_counts(spent, step)
        if not step.final_residual <= spent.final_residual:
            spent.records = step.records
    return vals, spent
