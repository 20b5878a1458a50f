"""Newton solver for discrete Euler-Lagrange boundary-value systems and a
marching solver for every alpha = 1 scheme kind, both driven by one damped
Newton kernel.

Boundary values are never unknowns: the interior nodes Q_1 .. Q_{n-1} are
solved for with the endpoints pinned, mirroring variations that vanish at
both ends.  A boundary-value solve validates its problem once, by the
layout check that ``schemes.assemble_residual`` makes, then works on raw
arrays: each iterate is written into one (n+1, d) array whose end rows
hold the boundary values, and the array-level cores behind
``schemes.assemble_residual`` and ``schemes.jacobian`` run on it, with
one Jacobian core per solve holding the grid's constants.  No
boundary-value solve differentiates its residual: the Jacobian comes by
the chain rule from pointwise Hessian blocks (4*d + 2 callback calls).
Below alpha = 1 it is dense and solved by LAPACK; at alpha = 1, whatever
the family, it has three block diagonals, which odd-even block cyclic
reduction solves in O(n*d^3) time and O(n*d^2) memory, ending in one
small LAPACK solve.  A reduction level with 1x1 blocks (d = 1) is one
reciprocal and elementwise products; with d > 1 it is one batched LAPACK
solve and stacked matmuls.

The Newton kernel owns its step: handed a Jacobian builder and maybe a
held Jacobian, it solves with the held one at its first iteration, builds
one at every other, and returns the last one it used.  The Jacobian's
layout picks the linear solve: one division for a float, :func:`lu_solve`
for a matrix, cyclic reduction for three block bands.  A boundary-value
solve holds none: plain Newton.  :func:`march` threads the held Jacobian
from step to step, a chord iteration whose rebuilds difference the step's
d unknowns one at a time.  Its one step rule reads the kind's sigma and
outer side, reuses the previous step's last Lx and Lv values and, as
every assembly, calls Lx and Lv through ``lagrangians._call``.  Each
iteration makes one linear solve, and the line search stops as soon as a
rejected trial rounds to the iterate.  The kernel fails through one raise,
and :func:`march` names the failing step itself.  A one-unknown march
(d = 1) runs in the scalar layout: its unknown, residuals, held Jacobian
and Lx, Lv values are Python floats, wrapped as (1,) arrays only for the
callbacks, so it calls no :func:`lu_solve`.  A harmonic chord step then
costs about 7 us on a 2-core x86_64 host, 3.5-4 us of it in the
callbacks (about 15 us in the array layout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import MINUS, DomainError, Grid, Trajectory, _fmt, _write_csv, check_endpoints
from .grids import check_integer
from .lagrangians import FD_STEP, Lagrangian, _call, _lagrangian_values
from .schemes import SchemeFamily, SchemeKind, _assemble_values, _check_layout, _jacobian_core
from .schemes import assemble_residual  # noqa: F401  perfbench/tracer.py patches it here


class SingularMatrixError(RuntimeError):
    """A Newton system is singular: the LU factorization of a dense system,
    or of a diagonal block that block cyclic reduction eliminates, hit an
    exactly zero pivot."""


class NewtonConvergenceError(RuntimeError):
    """Newton failed to reach the residual target.

    Carries the last iterate and the iteration history for diagnosis; for a
    marching failure these belong to the failing step.
    """

    def __init__(self, message: str, last: "Trajectory | np.ndarray", diagnostics):
        super().__init__(message)
        self.last = last
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DomainError(f"tol must be positive and finite, got {self.tol}")
        object.__setattr__(self, "max_iter", check_integer(self.max_iter, "max_iter"))
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class BVPProblem:
    """Fixed-endpoint problem: Q_0 = qa and Q_n = qb, interior unknown."""

    grid: Grid
    lagrangian: Lagrangian
    scheme: SchemeKind
    qa: np.ndarray
    qb: np.ndarray

    def __post_init__(self):
        qa, qb = check_endpoints(self.qa, self.qb, self.lagrangian.dim)
        object.__setattr__(self, "qa", qa)
        object.__setattr__(self, "qb", qb)


@dataclass
class NewtonDiagnostics:
    """Per-iteration history: (iter, residual inf-norm, step inf-norm).

    The counters tally residual calls (a marching Jacobian's columns
    included), Jacobian builds, and line-search trials that were rejected.
    Builds can be fewer than iterations: a marching iteration that reuses
    the held Jacobian builds none.  Marching sums the counters over every
    step, up to the failing one on failure.
    """

    records: list[tuple[int, float, float]] = field(default_factory=list)
    converged: bool = False
    residual_evals: int = 0
    jacobian_builds: int = 0
    backtracks: int = 0

    def add_counts(self, other: "NewtonDiagnostics") -> None:
        self.residual_evals += other.residual_evals
        self.jacobian_builds += other.jacobian_builds
        self.backtracks += other.backtracks

    @property
    def iterations(self) -> int:
        return self.records[-1][0] if self.records else 0

    @property
    def final_residual(self) -> float:
        return self.records[-1][1] if self.records else float("nan")

    def write_csv(self, path) -> None:
        rows = ([str(it), _fmt(rn), _fmt(sn)] for it, rn, sn in self.records)
        _write_csv(path, ["iter", "residual_norm", "step_norm"], rows)


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense square system by LAPACK's partial-pivoting LU; an
    exactly zero pivot raises :class:`SingularMatrixError`."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[0]
    if a.shape != (m, m):
        raise DomainError(f"matrix must be square, got {a.shape}")
    if b.shape[0] != m:
        raise DomainError(f"right-hand side length {b.shape[0]} != {m}")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular matrix") from None


def linear_initial_guess(grid: Grid, qa, qb) -> Trajectory:
    """Straight line between the endpoint values (exact for the free problem)."""
    qa, qb = check_endpoints(qa, qb)
    s = np.arange(grid.n + 1, dtype=float) / grid.n
    vals = qa[None, :] + s[:, None] * (qb - qa)[None, :]
    vals[0] = qa
    vals[-1] = qb  # endpoints exact, rounding-free
    return Trajectory(grid, vals)


_MAX_BACKTRACKS = 40
#: Line-search step shrink factor per rejected trial.
_DAMPING = 0.5


def _inf_norm(v: np.ndarray | float) -> float:
    """``max |v_i|`` (NaN if any entry is); a float is its one entry."""
    return abs(v) if isinstance(v, float) else float(abs(v).max())


def _fd_jacobian(fun, x: np.ndarray | float, r: np.ndarray | float) -> np.ndarray | float:
    """Forward-difference Jacobian of ``fun`` at ``x``, where ``r = fun(x)``:
    one residual call per column, with the step ``FD_STEP * (1 + |x_j|)``.
    A float ``x`` (the scalar layout) gives a float."""
    if isinstance(x, float):
        step = FD_STEP * (1.0 + abs(x))
        return (fun(x + step) - r) / step
    steps = FD_STEP * (1.0 + np.abs(x))
    jac = np.empty((r.size, x.size))
    for j in range(x.size):
        xp = x.copy()
        xp[j] += steps[j]
        jac[:, j] = (fun(xp) - r) / steps[j]
    return jac


#: Unknown count at or below which cyclic reduction hands the reduced
#: system to one dense LAPACK solve: below it a reduction level costs more
#: than the O((nodes*d)^3) work it saves (cutoff table in CHANGES.md).
_DENSE_UNKNOWNS = 64


def _block_solve(diag: np.ndarray, lower: np.ndarray, upper: np.ndarray, rhs: np.ndarray):
    """``diag^-1 @`` each of the stacks ``lower``, ``upper`` and ``rhs``,
    where ``diag`` is a stack of (d, d) blocks or, for d = 1, of scalars.
    Scalars take one reciprocal and three products, bit for bit LAPACK's
    answer for several right-hand sides; blocks take one batched LAPACK
    solve of the three side by side.  An exactly singular block raises
    :class:`SingularMatrixError`, a zero scalar before any division."""
    message = "singular diagonal block in cyclic reduction"
    if diag.ndim == 1:
        if not diag.all():
            raise SingularMatrixError(message)
        inverse = 1.0 / diag
        return lower * inverse, upper * inverse, rhs * inverse
    try:
        solved = np.linalg.solve(diag, np.concatenate([lower, upper, rhs], axis=2))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(message) from None
    d = diag.shape[-1]
    return np.split(solved, [d, 2 * d], axis=2)


def _block_product(diag: np.ndarray):
    """The product of stacks laid out like ``diag``: ``np.matmul`` of
    blocks, or the elementwise ``np.multiply`` of scalars, the same numbers
    without a stacked matmul."""
    return np.multiply if diag.ndim == 1 else np.matmul


def _block_tridiagonal_solve(bands: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system ``bands`` (laid out as
    :func:`~fracvi.schemes.jacobian` returns classical ones) for the
    right-hand side ``b``.

    Odd-even cyclic reduction (Buzbee, Golub & Nielson 1970; Golub & Van
    Loan section 4.5): each level eliminates the odd-numbered blocks
    against their diagonal blocks, which halves the system, until at most
    ``_DENSE_UNKNOWNS`` unknowns (or one block) are left for one
    :func:`lu_solve`: O(nodes*d^3) work, O(nodes*d^2) memory.  1x1 blocks
    travel as scalars, (3, nodes) bands and a (nodes,) right-hand side, so
    that with d = 1 a level is one reciprocal and elementwise products;
    with d > 1 it is one batched LAPACK solve and stacked matmuls
    (:func:`_block_solve`, :func:`_block_product`).  No pivoting crosses
    blocks, so a singular diagonal block of an eliminated row raises
    :class:`SingularMatrixError`, as a singular reduced system does.
    """
    nodes, d = bands.shape[1:3]
    if d == 1:
        return _cyclic_reduction(bands.reshape(3, nodes), b)
    return _cyclic_reduction(bands, b.reshape(nodes, d, 1)).ravel()


def _cyclic_reduction(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """:func:`_block_tridiagonal_solve` on stacks: ``bands`` (3, nodes) of
    scalars or (3, nodes, d, d) of blocks, ``rhs`` (nodes,) or (nodes, d,
    1); the solution is laid out as ``rhs``."""
    nodes = len(rhs)
    if nodes == 1 or rhs.size <= _DENSE_UNKNOWNS:
        d = rhs.size // nodes
        blocks = bands.reshape(3, nodes, d, d)
        dense = np.zeros((nodes, d, nodes, d))
        i = np.arange(nodes)
        dense[i[1:], :, i[:-1]] = blocks[0, 1:]
        dense[i, :, i] = blocks[1]
        dense[i[:-1], :, i[1:]] = blocks[2, :-1]
        return lu_solve(dense.reshape(rhs.size, rhs.size), rhs.ravel()).reshape(rhs.shape)
    even, odd = bands[:, 0::2], bands[:, 1::2]
    evens, odds = even.shape[1], odd.shape[1]
    m = evens - 1
    mul = _block_product(odd[1])
    # per odd block k: D^-1 L, D^-1 U and D^-1 b of its row block
    left, right, inner = _block_solve(odd[1], odd[0], odd[2], rhs[1::2])
    # even block k couples to odd block k-1 (k > 0) and odd block k (k < odds)
    lower, upper = even[0, 1:], even[2, :odds]
    reduced = np.zeros(even.shape)
    reduced[0, 1:] = mul(-lower, left[:m])
    reduced[1] = even[1]
    reduced[1, 1:] -= mul(lower, right[:m])
    reduced[1, :odds] -= mul(upper, left)
    reduced[2, :m] = mul(-even[2, :m], right[:m])
    reduced_rhs = rhs[0::2].copy()
    reduced_rhs[1:] -= mul(lower, inner[:m])
    reduced_rhs[:odds] -= mul(upper, inner)
    x_even = _cyclic_reduction(reduced, reduced_rhs)
    x_odd = inner - mul(left, x_even[:odds])
    x_odd[:m] -= mul(right[:m], x_even[1:])
    x = np.empty(rhs.shape)
    x[0::2] = x_even
    x[1::2] = x_odd
    return x


def _newton(
    fun,
    x0: np.ndarray | float,
    cfg: NewtonConfig,
    jacobian,
    held: np.ndarray | float | None = None,
) -> tuple[np.ndarray | float, NewtonDiagnostics, np.ndarray | float | None]:
    """Damped Newton for fun(x) = 0 from x0, a float array or, in the
    scalar layout of a one-unknown system, a Python float; ``fun`` and
    ``jacobian`` then take and return floats too.

    Each iteration solves a Jacobian against ``-r`` (``r = fun(x)``) by the
    linear solve its layout picks: one division for a float,
    :func:`lu_solve` for a matrix, :func:`_block_tridiagonal_solve` for
    (3, nodes, d, d) bands.  A zero float raises
    :class:`SingularMatrixError` as :func:`lu_solve` does.  The first
    iteration solves with ``held`` when one is given; every other iteration
    builds ``jacobian(fun, x, r)`` at its iterate and counts the build
    (``fun`` counts the residual calls the build makes).  Returns the
    solution, the diagnostics and the last Jacobian used, which a chord
    iteration hands to its next solve as ``held``.  Steps backtrack until
    the residual inf-norm decreases.  A rejected trial that rounds to ``x``
    bit for bit ends the search at once: every shorter step rounds to ``x``
    too, so no trial can decrease the residual.  The last residual call of
    a successful solve is at the iterate it returns.  Each failure (a
    non-finite initial residual, ``max_iter`` passed, a stalled line
    search) names itself and leaves through one raise of
    :class:`NewtonConvergenceError` with the last iterate and the history.
    """
    x = x0  # never written: a step makes a new iterate
    diag = NewtonDiagnostics()

    def counted(y: np.ndarray) -> np.ndarray:
        diag.residual_evals += 1
        return fun(y)

    r = counted(x)
    rnorm = _inf_norm(r)
    diag.records.append((0, rnorm, 0.0))
    failure = None  # the message of the one raise below
    if not math.isfinite(rnorm):
        failure = f"non-finite residual ({rnorm}) at the initial iterate"
    it = 0
    while failure is None and not rnorm <= cfg.tol:
        it += 1
        if it > cfg.max_iter:
            failure = f"no convergence after {cfg.max_iter} iterations"
            break
        if held is None or it > 1:
            held = jacobian(counted, x, r)
            diag.jacobian_builds += 1
        if isinstance(held, float):
            if held == 0.0:
                raise SingularMatrixError("singular matrix")
            delta = -r / held
        else:
            delta = (lu_solve if held.ndim == 2 else _block_tridiagonal_solve)(held, -r)
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            step = delta if t == 1.0 else t * delta  # 1.0 * delta is delta
            trial = x + step
            r_trial = counted(trial)
            rn_trial = _inf_norm(r_trial)
            if rn_trial < rnorm:
                break
            diag.backtracks += 1
            # bit for bit: a float compares as its 8 bytes, so -0.0 is not 0.0
            if np.asarray(trial).tobytes() == np.asarray(x).tobytes():
                break
            t *= _DAMPING
        if not rn_trial < rnorm:
            diag.records.append((it, rnorm, 0.0))
            failure = f"line search stalled at iteration {it}"
            break
        x, r, rnorm = trial, r_trial, rn_trial
        diag.records.append((it, rnorm, _inf_norm(step)))
    if failure is not None:
        if it:  # a stop inside the loop reports the residual it reached
            failure += f" (residual {rnorm:.3e}, target {cfg.tol:.3e})"
        raise NewtonConvergenceError(failure, x, diag)
    diag.converged = True
    return x, diag, held


def _bvp_functions(problem: BVPProblem):
    """The solver's array path: ``residual(x)`` and ``jacobian(fun, x, r)``
    (``fun``, ``r`` unread) of the flattened interior nodes ``x``, bit for
    bit the public assemblers' on the trajectory with the ends pinned.
    Each writes ``x`` into one (n+1, d) array that holds the boundary
    values in its end rows, and calls the array-level cores on it; nothing
    is checked."""
    grid, lag, kind = problem.grid, problem.lagrangian, problem.scheme
    n, d = grid.n, lag.dim
    buf = np.empty((n + 1, d))
    buf[0], buf[-1] = problem.qa, problem.qb
    values = buf.view()
    values.flags.writeable = False  # callbacks see read-only node values
    core = _jacobian_core(kind, grid)  # the per-grid constants, once per solve

    def residual(x: np.ndarray) -> np.ndarray:
        buf[1:-1] = x.reshape(n - 1, d)
        return _assemble_values(kind, lag, values, grid).ravel()

    def jacobian(fun, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        buf[1:-1] = x.reshape(n - 1, d)
        return core(lag, values)

    return residual, jacobian


def solve_bvp_newton(
    problem: BVPProblem,
    init: Trajectory | None = None,
    config: NewtonConfig | None = None,
) -> tuple[Trajectory, NewtonDiagnostics]:
    """Solve R(Q) = 0 for the interior nodes by damped Newton.

    Raises :class:`NewtonConvergenceError` with the last iterate (a
    :class:`Trajectory`) and the history if the target is not met.
    """
    cfg = config or NewtonConfig()
    grid = problem.grid
    kind = problem.scheme
    d = problem.lagrangian.dim
    if init is None:
        init = linear_initial_guess(grid, problem.qa, problem.qb)
    if init.grid != grid or init.dim != d:
        raise DomainError("initial guess does not match the problem layout")
    if not (
        np.array_equal(init.values[0], problem.qa)
        and np.array_equal(init.values[-1], problem.qb)
    ):
        raise DomainError("initial guess must satisfy the boundary values")
    _check_layout(kind, problem.lagrangian, init)
    residual, jacobian = _bvp_functions(problem)

    def build(x: np.ndarray) -> Trajectory:
        vals = np.vstack(
            [problem.qa[None, :], x.reshape(grid.n - 1, d), problem.qb[None, :]]
        )
        return Trajectory(grid, vals)

    try:
        x, diag, _ = _newton(residual, init.values[1:-1].ravel(), cfg, jacobian)
    except NewtonConvergenceError as exc:
        exc.last = build(exc.last)
        raise
    return build(x), diag


def march(
    kind: SchemeKind, lag: Lagrangian, grid: Grid, q0, q1, config: NewtonConfig | None = None
) -> tuple[Trajectory, NewtonDiagnostics]:
    """March an alpha = 1 kind forward from (Q_0, Q_1); a lower order is
    refused.

    Step k = 2 .. n solves the kind's three-node row for its newest unknown
    Q_k.  With v = (Q_k - Q_{k-1})/h at node j = k (sigma MINUS) or k - 1
    (PLUS), it calls Lx and Lv at (Q_j, v, t_j), and its residual is
    lx + (lv_{j-1} - lv_j)/h, lx at node j if ``kind.outer`` is MINUS, else
    at node j - 1.  Direct classical MINUS, for a mechanical Lagrangian, is
    (Q_k - 2 Q_{k-1} + Q_{k-2})/h^2 + grad U(Q_k) = 0.

    Each step is a chord iteration (Kelley 2003, section 5.4): its Newton
    solve starts from the last Jacobian built so far, close because the
    step Jacobian is about ``1/h^2`` plus a term that moves by O(h) from
    step to step, and rebuilds it by forward differences at any later
    iteration.  A linear problem thus builds one Jacobian for the whole
    march.  With d = 1 the step works on Python floats (the scalar
    layout), bit for bit as the (d,) array layout.  Each step's callback
    results are converted and shape-checked as an assembly's.

    Returns the trajectory and diagnostics whose counters are summed over
    every step and whose history is that of the step that ended with the
    largest residual.  A failing step raises
    :class:`NewtonConvergenceError` carrying that step's iterate (a (d,)
    array) and history, with its counters summed over every step; its
    message, as a singular step's, starts ``march step k=K: ``.
    """
    if kind.alpha not in (None, 1.0):
        raise DomainError(f"only alpha = 1 kinds march, got alpha = {kind.alpha}")
    cfg = config or NewtonConfig()
    d = lag.dim
    q0, q1 = check_endpoints(q0, q1, d, "initial", ("q0", "q1"))
    hinv = 1.0 / grid.h
    nodes = grid.nodes.tolist()
    back = 0 if kind.sigma == MINUS else 1  # step k reads node j = k - back
    own = kind.outer == MINUS  # the row's lx is node j's, else node j-1's
    spent = NewtonDiagnostics(converged=True)
    worst = math.nan  # spent.final_residual, as a float
    held = None  # the last Jacobian built during the march
    scalar = d == 1  # the scalar layout: Q_k, residuals, Lx and Lv as floats

    # step k's residual at Q_k = x, with prev = Q_{k-1}, t_j, and lx_prev,
    # lv_prev at node j-1; it keeps node j's own in lx_last, lv_last
    def step_residual(x):
        nonlocal lx_last, lv_last
        v = (x - prev) * hinv
        xj = prev if back else x
        xs, vs = (np.array([xj]), np.array([v])) if scalar else (xj, v)
        lx_last, lv_last = _lagrangian_values(lag, xs, vs, t_j)
        if scalar:
            lx_last, lv_last = lx_last.item(), lv_last.item()
        return (lx_last if own else lx_prev) - (lv_last - lv_prev) * hinv

    # node j-1 of step k = 2; Lx there only when the row reads it
    first = (q0 if back else q1, (q1 - q0) * hinv, nodes[1 - back])
    lx_last = None if own else _call(lag.Lx, "Lx", (d,), *first)
    lv_last = _call(lag.Lv, "Lv", (d,), *first)
    q = [q0, q1]  # Q_0 .. Q_k
    if scalar:
        q, lv_last = [q0.item(), q1.item()], lv_last.item()
        lx_last = None if own else lx_last.item()
    for k in range(2, grid.n + 1):
        # a converged step's last residual call was at the Q_{k-1} it
        # returned, so its Lx and Lv are node j-1's, bit for bit
        prev, t_j, lx_prev, lv_prev = q[k - 1], nodes[k - back], lx_last, lv_last
        guess = 2.0 * prev - q[k - 2]
        try:
            x, step, held = _newton(step_residual, guess, cfg, _fd_jacobian, held)
        except (NewtonConvergenceError, SingularMatrixError) as exc:
            exc.args = (f"march step k={k}: {exc}",)
            if isinstance(exc, NewtonConvergenceError):
                exc.last = np.reshape(exc.last, (d,))
                exc.diagnostics.add_counts(spent)
            raise
        q.append(x)
        spent.add_counts(step)
        if not step.records[-1][1] <= worst:
            spent.records, worst = step.records, step.records[-1][1]
    return Trajectory(grid, np.reshape(q, (grid.n + 1, d))), spent


def march_direct_classical(
    lag: Lagrangian, grid: Grid, q0, q1, config: NewtonConfig | None = None, sigma: int = MINUS
) -> tuple[Trajectory, NewtonDiagnostics]:
    """:func:`march` of the direct classical kind on ``sigma``."""
    return march(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, sigma), lag, grid, q0, q1, config)
