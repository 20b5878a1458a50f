"""Newton solver for discrete Euler-Lagrange boundary-value systems and a
marching solver for the direct classical scheme, both driven by one damped
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
the chain rule from pointwise Hessian blocks (4*d + 2 callback calls).  A
fractional one is dense and solved by LAPACK; a classical one has three
block diagonals, which odd-even block cyclic reduction solves in
O(n*d^3) time and O(n*d^2) memory, ending in one small LAPACK solve.

The Newton kernel owns its step: handed a Jacobian builder, a linear solve
and maybe a held Jacobian, it solves with the held one at its first
iteration, builds one at every other, and returns the last one it used.
A boundary-value solve holds none: plain Newton.  Marching threads the
held Jacobian from step to step, a chord iteration whose rebuilds
difference the step's d unknowns one at a time; a step reuses the previous
step's last Lv value.  Each iteration makes one linear solve (:func:`lu_solve`
answers a 1x1 system by a division), and the line search stops as soon as
a rejected trial rounds to the iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import DomainError, Grid, Trajectory, _fmt, _write_csv, check_endpoints
from .grids import check_integer
from .lagrangians import FD_STEP, Lagrangian, _call
from .schemes import SchemeKind, _assemble_values, _check_layout, _jacobian_core
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
    """Solve a dense square system by LAPACK's partial-pivoting LU.

    A 1x1 system with one right-hand side is answered by the one division
    LAPACK does, in Python floats, without its call overhead (a sixth of a
    marching step); a zero pivot raises :class:`SingularMatrixError` as
    LAPACK's does.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[0]
    if a.shape != (m, m):
        raise DomainError(f"matrix must be square, got {a.shape}")
    if b.shape[0] != m:
        raise DomainError(f"right-hand side length {b.shape[0]} != {m}")
    if b.shape == (1,):
        pivot = float(a[0, 0])
        if pivot == 0.0:
            raise SingularMatrixError("singular matrix")
        return np.array([float(b[0]) / pivot])
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


def _fd_jacobian(fun, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of ``fun`` at ``x``, where ``r = fun(x)``:
    one residual call per column, with the step ``FD_STEP * (1 + |x_j|)``."""
    steps = FD_STEP * (1.0 + np.abs(x))
    jac = np.empty((r.size, x.size))
    for j in range(x.size):
        xp = x.copy()
        xp[j] += steps[j]
        jac[:, j] = (fun(xp) - r) / steps[j]
    return jac


#: Unknown count at or below which cyclic reduction hands the reduced
#: system to one dense LAPACK solve: below it a batched level costs more
#: than the O((nodes*d)^3) work it saves (timings in CHANGES.md).
_DENSE_UNKNOWNS = 64


def _block_tridiagonal_solve(bands: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system ``bands`` (laid out as
    :func:`~fracvi.schemes.jacobian` returns classical ones) for the
    right-hand side ``b``.

    Odd-even cyclic reduction (Buzbee, Golub & Nielson 1970; Golub & Van
    Loan section 4.5): each level eliminates the odd-numbered blocks with
    one batched solve against their diagonal blocks, which halves the
    system, until at most ``_DENSE_UNKNOWNS`` unknowns (or one block) are
    left for one :func:`lu_solve`: O(nodes*d^3) work, O(nodes*d^2)
    memory.  No pivoting crosses blocks, so a singular diagonal block of an
    eliminated row raises :class:`SingularMatrixError`, as a singular
    reduced system does.
    """
    nodes, d = bands.shape[1:3]
    if nodes == 1 or nodes * d <= _DENSE_UNKNOWNS:
        dense = np.zeros((nodes, d, nodes, d))
        i = np.arange(nodes)
        dense[i[1:], :, i[:-1]] = bands[0, 1:]
        dense[i, :, i] = bands[1]
        dense[i[:-1], :, i[1:]] = bands[2, :-1]
        return lu_solve(dense.reshape(nodes * d, nodes * d), b)
    rhs = b.reshape(nodes, d, 1)
    even, odd = bands[:, 0::2], bands[:, 1::2]
    evens, odds = even.shape[1], odd.shape[1]
    try:
        # per odd block k: D^-1 [L, U, b] of its row block
        solved = np.linalg.solve(odd[1], np.concatenate([odd[0], odd[2], rhs[1::2]], axis=2))
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular diagonal block in cyclic reduction") from None
    left, right, inner = np.split(solved, [d, 2 * d], axis=2)
    # even block k couples to odd block k-1 (k > 0) and odd block k (k < odds)
    lower, upper = even[0, 1:], even[2, :odds]
    reduced = np.zeros((3, evens, d, d))
    reduced[0, 1:] = -lower @ left[: evens - 1]
    reduced[1] = even[1]
    reduced[1, 1:] -= lower @ right[: evens - 1]
    reduced[1, :odds] -= upper @ left
    reduced[2, : evens - 1] = -even[2, : evens - 1] @ right[: evens - 1]
    reduced_rhs = rhs[0::2].copy()
    reduced_rhs[1:] -= lower @ inner[: evens - 1]
    reduced_rhs[:odds] -= upper @ inner
    x_even = _block_tridiagonal_solve(reduced, reduced_rhs.ravel()).reshape(evens, d, 1)
    x_odd = inner - left @ x_even[:odds]
    x_odd[: evens - 1] -= right[: evens - 1] @ x_even[1:]
    x = np.empty((nodes, d, 1))
    x[0::2] = x_even
    x[1::2] = x_odd
    return x.ravel()


def _newton(
    fun,
    x0: np.ndarray,
    cfg: NewtonConfig,
    jacobian,
    solve,
    held: np.ndarray | None = None,
    label: str = "",
) -> tuple[np.ndarray, NewtonDiagnostics, np.ndarray | None]:
    """Damped Newton for fun(x) = 0 from x0.

    Each iteration solves a Jacobian against ``-r`` (``r = fun(x)``) by one
    ``solve(jac, -r)``.  The first iteration solves with ``held`` when one
    is given; every other iteration builds ``jacobian(fun, x, r)`` at its
    iterate and counts the build (``fun`` counts the residual calls the
    build makes).  Returns the solution, the diagnostics and the last
    Jacobian used, which a chord iteration hands to its next solve as
    ``held``.  Steps backtrack until the residual inf-norm decreases.  A
    rejected trial that rounds to ``x`` bit for bit ends the search at
    once: every shorter step rounds to ``x`` too, so no trial can decrease
    the residual.  The last residual call of a successful solve is at the
    iterate it returns.  Raises :class:`NewtonConvergenceError` with the
    last iterate and the history, its message prefixed by ``label``, if
    the target is not met, and at once if the residual is not finite.
    """
    x = np.array(x0, dtype=float)
    diag = NewtonDiagnostics()

    def counted(y: np.ndarray) -> np.ndarray:
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
    while not rnorm <= cfg.tol:
        it += 1
        if it > cfg.max_iter:
            raise NewtonConvergenceError(
                f"{label}no convergence after {cfg.max_iter} iterations "
                f"(residual {rnorm:.3e}, target {cfg.tol:.3e})",
                x,
                diag,
            )
        if held is None or it > 1:
            held = jacobian(counted, x, r)
            diag.jacobian_builds += 1
        delta = solve(held, -r)
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = x + t * delta
            r_trial = counted(trial)
            rn_trial = float(abs(r_trial).max())
            if rn_trial < rnorm:
                break
            diag.backtracks += 1
            if trial.tobytes() == x.tobytes():
                break
            t *= _DAMPING
        if not rn_trial < rnorm:
            diag.records.append((it, rnorm, 0.0))
            raise NewtonConvergenceError(
                f"{label}line search stalled at iteration {it} "
                f"(residual {rnorm:.3e}, target {cfg.tol:.3e})",
                x,
                diag,
            )
        x, r, rnorm = trial, r_trial, rn_trial
        diag.records.append((it, rnorm, float(abs(t * delta).max())))
    diag.converged = True
    return x, diag, held


def _bvp_functions(problem: BVPProblem):
    """The solver's array path: ``residual(x)`` and ``jacobian(fun, x, r)``
    (``fun``, ``r`` unread) of the flattened interior nodes ``x``, bit for
    bit the public assemblers' on the trajectory with the ends pinned, and
    the ``solve`` for that Jacobian: dense LU or cyclic reduction.  Each
    writes ``x`` into one (n+1, d) array that holds the boundary values in
    its end rows, and calls the array-level cores on it; nothing is
    checked."""
    grid, lag, kind = problem.grid, problem.lagrangian, problem.scheme
    n, d = grid.n, lag.dim
    buf = np.empty((n + 1, d))
    buf[0], buf[-1] = problem.qa, problem.qb
    values = buf.view()
    values.flags.writeable = False  # callbacks see read-only node values
    core = _jacobian_core(kind, grid)  # the per-grid constants, once per solve
    solve = lu_solve if kind.is_fractional else _block_tridiagonal_solve

    def residual(x: np.ndarray) -> np.ndarray:
        buf[1:-1] = x.reshape(n - 1, d)
        return _assemble_values(kind, lag, values, grid).ravel()

    def jacobian(fun, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        buf[1:-1] = x.reshape(n - 1, d)
        return core(lag, values)

    return residual, jacobian, solve


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
    residual, jacobian, solve = _bvp_functions(problem)

    def build(x: np.ndarray) -> Trajectory:
        vals = np.vstack(
            [problem.qa[None, :], x.reshape(grid.n - 1, d), problem.qb[None, :]]
        )
        return Trajectory(grid, vals)

    try:
        x, diag, _ = _newton(residual, init.values[1:-1].ravel(), cfg, jacobian, solve)
    except NewtonConvergenceError as exc:
        exc.last = build(exc.last)
        raise
    return build(x), diag


def march_direct_classical(
    lag: Lagrangian,
    grid: Grid,
    q0,
    q1,
    config: NewtonConfig | None = None,
) -> tuple[Trajectory, NewtonDiagnostics]:
    """March the backward direct scheme forward from (Q_0, Q_1).

    For k = 2 .. n the k-th direct residual is solved for its newest
    unknown Q_k by a per-step Newton iteration; for the mechanical
    Lagrangian this is the implicit step

        (Q_k - 2 Q_{k-1} + Q_{k-2})/h^2 + grad U(Q_k) = 0.

    Each step is a chord iteration (Kelley 2003, section 5.4): the march
    hands every step's Newton solve the last Jacobian built so far as its
    held Jacobian, which is close because the step Jacobian is about
    ``1/h^2`` plus a term that moves by O(h) from step to step.  The solve's
    first iteration uses it; any later iteration rebuilds the Jacobian by
    dense forward differences at its iterate, and the solve returns the
    last one.  A linear problem thus builds one Jacobian for the whole
    march.

    Returns the trajectory and diagnostics whose counters are summed over
    every step and whose history is that of the step that ended with the
    largest residual.  A failing step raises
    :class:`NewtonConvergenceError` carrying that step's iterate and
    history, with its counters summed over every step.
    """
    cfg = config or NewtonConfig()
    d = lag.dim
    q0, q1 = check_endpoints(q0, q1, d, "initial", ("q0", "q1"))
    hinv = 1.0 / grid.h
    nodes = grid.nodes.tolist()
    vals = np.empty((grid.n + 1, d))
    vals[0] = q0
    vals[1] = q1
    spent = NewtonDiagnostics(converged=True)
    held = None  # the last Jacobian built during the march

    # step k's residual at Q_k = x, with prev = Q_{k-1}, t_k and
    # lv_prev = Lv at node k-1; it keeps its own Lv in lv_last.  Lx is
    # refused at a wrong shape, as Lv is by its first call, at node 1
    def step_residual(x: np.ndarray) -> np.ndarray:
        nonlocal lv_last
        v = (x - prev) * hinv
        lx = _call(lag.Lx, "Lx", (d,), x, v, t_k)
        lv_last = lag.Lv(x, v, t_k)
        return lx - (lv_last - lv_prev) * hinv

    lv_last = _call(lag.Lv, "Lv", (d,), q1, (q1 - q0) * hinv, nodes[1])
    for k in range(2, grid.n + 1):
        # a converged step's last residual call was at the Q_{k-1} it
        # returned, so its Lv is the one at node k-1, bit for bit
        prev, t_k, lv_prev = vals[k - 1], nodes[k], lv_last
        guess = 2.0 * prev - vals[k - 2]
        try:
            vals[k], step, held = _newton(
                step_residual, guess, cfg, _fd_jacobian, lu_solve, held, f"march step k={k}: "
            )
        except NewtonConvergenceError as exc:
            exc.diagnostics.add_counts(spent)
            raise
        spent.add_counts(step)
        if not step.final_residual <= spent.final_residual:
            spent.records = step.records
    return Trajectory(grid, vals), spent
