"""Newton solver for discrete Euler-Lagrange boundary-value systems and a
marching solver for the direct classical scheme, both driven by one damped
Newton kernel.

Boundary values are never unknowns: the interior nodes Q_1 .. Q_{n-1} are
solved for with the endpoints pinned, mirroring variations that vanish at
both ends.  A fractional scheme's GL kernel couples every node, so its
Jacobian is built by the chain rule from pointwise Hessian blocks and the
family's own kernels (``schemes.fractional_jacobian``): 4*d + 2 callback
calls and one dense product, no residual call.  The three-point classical
schemes are block tridiagonal; their Jacobians are forward finite
differences that perturb columns three nodes apart in one residual call
(``SchemeKind.halo``), 3*d calls per Jacobian, which beats an O(n^3)
product.  Marching differences its d unknowns one at a time.  Linear
systems are solved densely by LAPACK through ``np.linalg.solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import DomainError, Grid, Trajectory
from .lagrangians import FD_STEP, Lagrangian
from .schemes import SchemeKind, assemble_residual, fractional_jacobian


class SingularMatrixError(RuntimeError):
    """The LU factorization hit an exactly zero pivot."""


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
        qa = np.atleast_1d(np.asarray(self.qa, dtype=float))
        qb = np.atleast_1d(np.asarray(self.qb, dtype=float))
        if qa.shape != (self.lagrangian.dim,) or qb.shape != (self.lagrangian.dim,):
            raise DomainError(
                f"boundary values must have dim {self.lagrangian.dim}, "
                f"got {qa.shape} and {qb.shape}"
            )
        if not (np.isfinite(qa).all() and np.isfinite(qb).all()):
            raise DomainError(f"boundary values must be finite, got qa={qa}, qb={qb}")
        object.__setattr__(self, "qa", qa)
        object.__setattr__(self, "qb", qb)


@dataclass
class NewtonDiagnostics:
    """Per-iteration history: (iter, residual inf-norm, step inf-norm).

    The counters tally residual calls (finite-difference Jacobian columns
    included), Jacobian builds, and line-search trials that were rejected.
    A marching failure sums them over every step up to the failing one.
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

    def csv_text(self) -> str:
        lines = ["iter,residual_norm,step_norm"]
        for it, rn, sn in self.records:
            lines.append(f"{it},{rn:.17g},{sn:.17g}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_text())


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense square system by LAPACK's partial-pivoting LU."""
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
    qa = np.atleast_1d(np.asarray(qa, dtype=float))
    qb = np.atleast_1d(np.asarray(qb, dtype=float))
    s = np.arange(grid.n + 1, dtype=float) / grid.n
    vals = qa[None, :] + s[:, None] * (qb - qa)[None, :]
    vals[0] = qa
    vals[-1] = qb  # endpoints exact, rounding-free
    return Trajectory(grid, vals)


_MAX_BACKTRACKS = 40
#: Line-search step shrink factor per rejected trial.
_DAMPING = 0.5


def _fd_jacobian(fun, x: np.ndarray, r: np.ndarray, dim: int, halo: int | None) -> np.ndarray:
    """Forward-difference Jacobian of ``fun`` at ``x``, where ``r = fun(x)``.

    ``x`` holds nodes of ``dim`` components, and the residual rows come in
    the same blocks; the unknowns of node i move only row blocks
    i-halo .. i+halo (every row if ``halo`` is None).  Nodes 2*halo+1
    apart share no row, so they are perturbed in one call, one component at
    a time (Curtis, Powell & Reid 1974): min(2*halo+1, nodes)*dim calls.
    Each entry is the same quotient as in a one-column-per-call build.
    """
    nodes = x.size // dim
    reach = nodes if halo is None else halo
    stride = min(2 * reach + 1, nodes) * dim
    steps = FD_STEP * (1.0 + np.abs(x))
    shifted = x + steps
    jac = np.zeros((r.size, x.size))
    for first in range(stride):
        xp = x.copy()
        xp[first::stride] = shifted[first::stride]
        dr = fun(xp) - r
        for j in range(first, x.size, stride):
            node = j // dim
            lo = max(node - reach, 0) * dim
            hi = min(node + reach + 1, nodes) * dim
            jac[lo:hi, j] = dr[lo:hi] / steps[j]
    return jac


def _newton(
    fun,
    x0: np.ndarray,
    cfg: NewtonConfig,
    label: str = "",
    dim: int = 1,
    halo: int | None = None,
    jacobian=None,
) -> tuple[np.ndarray, NewtonDiagnostics]:
    """Damped Newton for fun(x) = 0 from x0.

    The Jacobian is ``jacobian(x)`` when given (the structured fractional
    build), else forward finite differences of ``fun`` by
    :func:`_fd_jacobian`, for nodes of ``dim`` unknowns whose residual rows
    reach ``halo`` nodes on each side (dense when ``halo`` is None).  It
    lives only until its linear solve.  Steps backtrack until the residual
    inf-norm decreases.  Raises :class:`NewtonConvergenceError` with the
    last iterate and the history, its message prefixed by ``label``, if the
    target is not met, and at once if the residual is not finite.
    """
    x = np.array(x0, dtype=float)
    diag = NewtonDiagnostics()

    def counted(y: np.ndarray) -> np.ndarray:
        diag.residual_evals += 1
        return fun(y)

    r = counted(x)
    rnorm = float(np.max(np.abs(r)))
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
        diag.jacobian_builds += 1
        # the Jacobian is a temporary: it is freed before the line search
        if jacobian is None:
            delta = lu_solve(_fd_jacobian(counted, x, r, dim, halo), -r)
        else:
            delta = lu_solve(jacobian(x), -r)
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = x + t * delta
            r_trial = counted(trial)
            rn_trial = float(np.max(np.abs(r_trial)))
            if rn_trial < rnorm:
                break
            diag.backtracks += 1
            t *= _DAMPING
        else:
            diag.records.append((it, rnorm, 0.0))
            raise NewtonConvergenceError(
                f"{label}line search stalled at iteration {it} "
                f"(residual {rnorm:.3e}, target {cfg.tol:.3e})",
                x,
                diag,
            )
        x, r, rnorm = trial, r_trial, rn_trial
        diag.records.append((it, rnorm, float(np.max(np.abs(t * delta)))))
    diag.converged = True
    return x, diag


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
    lag = problem.lagrangian
    d = lag.dim
    if init is None:
        init = linear_initial_guess(grid, problem.qa, problem.qb)
    if init.grid != grid or init.dim != d:
        raise DomainError("initial guess does not match the problem layout")
    if not (
        np.array_equal(init.values[0], problem.qa)
        and np.array_equal(init.values[-1], problem.qb)
    ):
        raise DomainError("initial guess must satisfy the boundary values")

    def build(x: np.ndarray) -> Trajectory:
        vals = np.vstack(
            [problem.qa[None, :], x.reshape(grid.n - 1, d), problem.qb[None, :]]
        )
        return Trajectory(grid, vals)

    def residual(x: np.ndarray) -> np.ndarray:
        return assemble_residual(problem.scheme, lag, build(x)).values.ravel()

    def jacobian(x: np.ndarray) -> np.ndarray:
        return fractional_jacobian(problem.scheme, lag, build(x))

    try:
        x, diag = _newton(
            residual,
            init.values[1:-1].ravel(),
            cfg,
            dim=d,
            halo=problem.scheme.halo,
            jacobian=jacobian if problem.scheme.is_fractional else None,
        )
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
) -> Trajectory:
    """March the backward direct scheme forward from (Q_0, Q_1).

    For k = 2 .. n the k-th direct residual is solved for its newest
    unknown Q_k by a per-step Newton iteration; for the mechanical
    Lagrangian this is the implicit step

        (Q_k - 2 Q_{k-1} + Q_{k-2})/h^2 + grad U(Q_k) = 0.

    A failing step raises :class:`NewtonConvergenceError` carrying that
    step's iterate and history, with its counters summed over every step.
    """
    cfg = config or NewtonConfig()
    d = lag.dim
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    q1 = np.atleast_1d(np.asarray(q1, dtype=float))
    if q0.shape != (d,) or q1.shape != (d,):
        raise DomainError(f"initial values must have dim {d}")
    hinv = 1.0 / grid.h
    vals = np.empty((grid.n + 1, d))
    vals[0] = q0
    vals[1] = q1
    spent = NewtonDiagnostics()
    for k in range(2, grid.n + 1):
        t_k = grid.node(k)
        t_prev = grid.node(k - 1)
        v_prev = (vals[k - 1] - vals[k - 2]) * hinv
        lv_prev = lag.Lv(vals[k - 1], v_prev, t_prev)

        def step_residual(x: np.ndarray) -> np.ndarray:
            v = (x - vals[k - 1]) * hinv
            return np.asarray(
                lag.Lx(x, v, t_k) - (lag.Lv(x, v, t_k) - lv_prev) * hinv
            )

        guess = 2.0 * vals[k - 1] - vals[k - 2]
        try:
            vals[k], step = _newton(step_residual, guess, cfg, f"march step k={k}: ")
        except NewtonConvergenceError as exc:
            exc.diagnostics.add_counts(spent)
            raise
        spent.add_counts(step)
    return Trajectory(grid, vals)
