"""Newton solver for discrete Euler-Lagrange boundary-value systems and a
marching solver for every alpha = 1 scheme kind, both driven by one damped
Newton kernel.

Boundary values are never unknowns: the interior nodes Q_1 .. Q_{n-1} are
solved for with the endpoints pinned, mirroring variations that vanish at
both ends.  A boundary-value solve validates its problem once, by the
layout check that ``schemes.assemble_residual`` makes, then works on raw
arrays: each iterate is written into one (n+1, d) array whose end rows
hold the boundary values, and the array-level cores behind
``schemes.assemble_residual`` and ``schemes.jacobian`` run on it: one of
each per solve, made when it starts, holding the grid's constants and the
GL operators the solve reads until it ends.  No
boundary-value solve differentiates its residual: the Jacobian comes by
the chain rule from pointwise Hessian blocks (4*d + 2 callback calls).
Below alpha = 1 it is dense and solved by LAPACK; at alpha = 1, whatever
the family, it has three block diagonals, which odd-even block cyclic
reduction solves in O(n*d^3) time and O(n*d^2) memory, ending in one
small system solved directly.  With 1x1 blocks (d = 1) a reduction level
is one reciprocal and elementwise products, and the small system a sweep
over Python floats that pivots as LAPACK's dgtsv, so a d = 1 solve makes
no LAPACK call.  With d > 1 a level is one batched LAPACK solve and
stacked matmuls, and the small system one dense LAPACK solve.

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
and :func:`march` names the failing step itself.  Every Lx and Lv call
of a march, at any d, writes Q_j and v into one pair of (d,) arrays, made
once per march, and hands the callback read-only views of them; both
results are read off before the next write.  A one-unknown march (d = 1)
runs in the scalar layout: its unknown, residuals, held Jacobian and Lx,
Lv values are Python floats, so it calls no :func:`lu_solve`, and it
reads each result as a float; a wider march reads a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import MINUS, DomainError, Grid, Trajectory, _fmt, _write_csv, check_endpoints
from .grids import check_integer
from .lagrangians import FD_STEP, Lagrangian, _call
from .schemes import SchemeFamily, SchemeKind, _check_layout, _jacobian_core, _residual_core
from .schemes import assemble_residual  # noqa: F401  perfbench/tracer.py patches it here


class SingularMatrixError(RuntimeError):
    """A Newton system is singular: the LU factorization of a dense system,
    of a d > 1 diagonal block that block cyclic reduction eliminates, or of
    the tridiagonal system that a d = 1 reduction hands the pivoting sweep
    hit an exactly zero pivot.  A d = 1 level never divides by a zero
    entry: it hands its system to the sweep instead."""


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
#: The line search's step factors 1, _DAMPING, _DAMPING^2, ..., exact powers of two.
_TRIAL_FACTORS = tuple(_DAMPING**i for i in range(_MAX_BACKTRACKS))


def _inf_norm(v: np.ndarray) -> float:
    """``max |v_i|`` (NaN if any entry is)."""
    return float(abs(v).max())


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


#: Unknown count at or below which cyclic reduction solves the reduced
#: system directly: by the tridiagonal sweep for d = 1, by one dense LAPACK
#: solve for d > 1.  Below it a reduction level costs more than the direct
#: solve it saves.  Timed against cutoffs 32 and 128 on 63-4095 nodes, it
#: was the fastest at each size or within the noise of the fastest: for
#: d = 1 in BENCH_37.json, for d 1-3 in BENCH_38.json.
_DENSE_UNKNOWNS = 64


def _block_solve(diag: np.ndarray, lower: np.ndarray, upper: np.ndarray, rhs: np.ndarray):
    """``diag^-1 @`` each of the stacks ``lower``, ``upper`` and ``rhs``,
    where ``diag`` is a stack of (d, d) blocks or, for d = 1, of scalars.
    Scalars take one reciprocal and three products, bit for bit LAPACK's
    answer for several right-hand sides; blocks take one batched LAPACK
    solve of the three side by side.  An exactly singular block raises
    :class:`SingularMatrixError`; scalars are never zero, as
    :func:`_cyclic_reduction` sends a level with a zero one to the sweep."""
    if diag.ndim == 1:
        inverse = 1.0 / diag
        return lower * inverse, upper * inverse, rhs * inverse
    try:
        solved = np.linalg.solve(diag, np.concatenate([lower, upper, rhs], axis=2))
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular diagonal block in cyclic reduction") from None
    d = diag.shape[-1]
    return np.split(solved, [d, 2 * d], axis=2)


def _block_tridiagonal_solve(bands: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system ``bands`` (laid out as
    :func:`~fracvi.schemes.jacobian` returns classical ones) for the
    right-hand side ``b``.

    Odd-even cyclic reduction (Buzbee, Golub & Nielson 1970; Golub & Van
    Loan section 4.5): each level eliminates the odd-numbered blocks
    against their diagonal blocks, which halves the system, until at most
    ``_DENSE_UNKNOWNS`` unknowns (or one block) are left for a direct
    solve: O(nodes*d^3) work, O(nodes*d^2) memory.  1x1 blocks travel as
    scalars, (3, nodes) bands and a (nodes,) right-hand side, so that with
    d = 1 a level is one reciprocal and elementwise products, and the
    direct solve :func:`_tridiagonal_sweep`, with no LAPACK call at all;
    with d > 1 a level is one batched LAPACK solve (:func:`_block_solve`)
    and stacked matmuls, and the direct solve one :func:`lu_solve`.  The
    product is picked here once, for the recursion.  A reduction level
    pivots only inside blocks.  So with d = 1 a level that would divide by
    an exactly zero diagonal entry leaves its system to the sweep, which
    pivots across rows; with d > 1 a singular diagonal block of an
    eliminated row raises :class:`SingularMatrixError`, as a singular
    reduced system does.
    """
    nodes, d = bands.shape[1:3]
    if d == 1:
        return _cyclic_reduction(bands.reshape(3, nodes), b, np.multiply)
    return _cyclic_reduction(bands, b.reshape(nodes, d, 1), np.matmul).ravel()


def _cyclic_reduction(bands: np.ndarray, rhs: np.ndarray, mul) -> np.ndarray:
    """:func:`_block_tridiagonal_solve` on stacks: ``bands`` (3, nodes) of
    scalars or (3, nodes, d, d) of blocks, ``rhs`` (nodes,) or (nodes, d, 1)
    and their product ``mul``; the solution is laid out as ``rhs``.  Scalar
    bands go to :func:`_tridiagonal_sweep` at ``_DENSE_UNKNOWNS`` nodes or
    fewer, or where an odd row's diagonal entry, which the level would
    divide by, is exactly zero."""
    nodes = len(rhs)
    if rhs.ndim == 1 and (nodes <= _DENSE_UNKNOWNS or not bands[1, 1::2].all()):
        return _tridiagonal_sweep(bands, rhs)
    if nodes == 1 or rhs.size <= _DENSE_UNKNOWNS:  # blocks, d > 1
        d = rhs.shape[1]
        dense = np.zeros((nodes, d, nodes, d))
        i = np.arange(nodes)
        dense[i[1:], :, i[:-1]] = bands[0, 1:]
        dense[i, :, i] = bands[1]
        dense[i[:-1], :, i[1:]] = bands[2, :-1]
        return lu_solve(dense.reshape(rhs.size, rhs.size), rhs.ravel()).reshape(rhs.shape)
    even, odd = bands[:, 0::2], bands[:, 1::2]
    evens, odds = even.shape[1], odd.shape[1]
    m = evens - 1
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
    x_even = _cyclic_reduction(reduced, reduced_rhs, mul)
    x_odd = inner - mul(left, x_even[:odds])
    x_odd[:m] -= mul(right[:m], x_even[1:])
    x = np.empty(rhs.shape)
    x[0::2] = x_even
    x[1::2] = x_odd
    return x


def _tridiagonal_sweep(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the scalar tridiagonal system ``bands`` (3, nodes) for ``rhs``
    (nodes,) over Python floats, by the steps of LAPACK's dgtsv: a forward
    elimination that interchanges two adjacent rows where the lower one
    holds the larger entry of the column (partial pivoting, so U gains one
    fill-in diagonal), then one back substitution (Golub & Van Loan,
    section 4.3).  O(nodes) work and no LAPACK call.  An exactly zero pivot
    raises :class:`SingularMatrixError` before any division by it.  Only a
    nonzero pivot or the larger of two entries divides, so nothing else
    raises: a NaN entry gives NaN."""
    lower, diag, upper = bands.tolist()
    b = rhs.tolist()
    upper[-1] = 0.0  # the last row has no right neighbour, as lower[0] no left one
    rows = []  # U's rows: pivot, upper entry, fill-in, right-hand side
    d, u, y = diag[0], upper[0], b[0]  # the row being eliminated, as updated
    for low, dia, up, nxt in zip(lower[1:], diag[1:], upper[1:], b[1:]):
        if abs(d) < abs(low):  # interchange: the next row becomes U's row
            fact = d / low
            rows.append((low, dia, up, nxt))
            d, u, y = u - fact * dia, -fact * up, y - fact * nxt
        else:  # also when either entry is NaN
            if d == 0.0:
                raise SingularMatrixError("singular matrix: zero pivot in the tridiagonal sweep")
            fact = low / d
            rows.append((d, u, 0.0, y))
            d, u, y = dia - fact * u, up, nxt - fact * y
    if d == 0.0:
        raise SingularMatrixError("singular matrix: zero pivot in the tridiagonal sweep")
    x, after = y / d, 0.0
    solution = [x]
    for d, u, fill, y in reversed(rows):
        x, after = (y - u * x - fill * after) / d, x
        solution.append(x)
    solution.reverse()
    return np.array(solution)


def _newton(
    fun,
    x0: np.ndarray | float,
    cfg: NewtonConfig,
    jacobian,
    diag: NewtonDiagnostics,
    held: np.ndarray | float | None = None,
) -> tuple[np.ndarray | float, np.ndarray | float | None]:
    """Damped Newton for fun(x) = 0 from x0, a float array or, in the
    scalar layout of a one-unknown system, a Python float; ``fun`` and
    ``jacobian`` then take and return floats too.

    Each iteration solves a Jacobian against ``-r`` (``r = fun(x)``) by the
    linear solve its layout picks: one division for a float,
    :func:`lu_solve` for a matrix, :func:`_block_tridiagonal_solve` for
    (3, nodes, d, d) bands.  A zero float raises
    :class:`SingularMatrixError` as :func:`lu_solve` does.  The first
    iteration solves with ``held`` when one is given; every other iteration
    builds ``jacobian(counted, x, r)`` at its iterate and counts the build;
    ``counted`` is ``fun`` counting the residual calls the build makes.
    The layout of ``x0`` picks the norm, and for a float the division,
    once per call.  The solve adds its counts to the counters of the
    caller's ``diag`` and sets its history and converged flag to its own:
    a boundary-value solve hands a fresh one, a march one for all its
    steps.  Returns the solution and the last Jacobian used, which a chord
    iteration hands to its next solve as ``held``.  Steps backtrack until
    the residual inf-norm decreases.  A rejected trial that rounds to ``x``
    bit for bit ends the search at once: every shorter step rounds to ``x``
    too, so no trial can decrease the residual.  The last residual call of
    a successful solve is at the iterate it returns.  Each failure (a
    non-finite initial residual, ``max_iter`` passed, a stalled line
    search) names itself and leaves through one raise of
    :class:`NewtonConvergenceError` with the last iterate and ``diag``.
    """
    x = x0  # never written: a step makes a new iterate
    scalar = isinstance(x0, float)
    norm = abs if scalar else _inf_norm  # a float is its one entry

    def counted(y: np.ndarray) -> np.ndarray:  # the Jacobian builder's calls
        diag.residual_evals += 1
        return fun(y)

    r = fun(x)
    diag.residual_evals += 1
    rnorm = norm(r)
    diag.records = records = [(0, rnorm, 0.0)]
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
        if scalar:
            if held == 0.0:
                raise SingularMatrixError("singular matrix")
            delta = -r / held
        else:
            delta = (lu_solve if held.ndim == 2 else _block_tridiagonal_solve)(held, -r)
        for t in _TRIAL_FACTORS:
            step = delta if t == 1.0 else t * delta  # 1.0 * delta is delta
            trial = x + step
            r_trial = fun(trial)
            diag.residual_evals += 1
            rn_trial = norm(r_trial)
            if rn_trial < rnorm:
                break
            diag.backtracks += 1
            # bit for bit: a float compares as its 8 bytes, so -0.0 is not 0.0
            if np.asarray(trial).tobytes() == np.asarray(x).tobytes():
                break
        if not rn_trial < rnorm:
            records.append((it, rnorm, 0.0))
            failure = f"line search stalled at iteration {it}"
            break
        x, r, rnorm = trial, r_trial, rn_trial
        records.append((it, rnorm, norm(step)))
    diag.converged = failure is None
    if failure is not None:
        if it:  # a stop inside the loop reports the residual it reached
            failure += f" (residual {rnorm:.3e}, target {cfg.tol:.3e})"
        raise NewtonConvergenceError(failure, x, diag)
    return x, held


def _bvp_functions(problem: BVPProblem):
    """The solver's array path: ``residual(x)`` and ``jacobian(fun, x, r)``
    (``fun``, ``r`` unread) of the flattened interior nodes ``x``, bit for
    bit the public assemblers' on the trajectory with the ends pinned, and
    ``trajectory(x)``, that trajectory.  Each writes ``x`` into one (n+1,
    d) array that holds the boundary values in its end rows, then calls the
    array-level cores on it or wraps it as a (copying) :class:`Trajectory`;
    nothing is checked."""
    grid, lag, kind = problem.grid, problem.lagrangian, problem.scheme
    n, d = grid.n, lag.dim
    buf = np.empty((n + 1, d))
    buf[0], buf[-1] = problem.qa, problem.qb
    values = buf.view()
    values.flags.writeable = False  # callbacks see read-only node values
    # the per-grid constants and operators, once per solve
    assemble, core = _residual_core(kind, grid), _jacobian_core(kind, grid)

    def residual(x: np.ndarray) -> np.ndarray:
        buf[1:-1] = x.reshape(n - 1, d)
        return assemble(lag, values).ravel()

    def jacobian(fun, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        buf[1:-1] = x.reshape(n - 1, d)
        return core(lag, values)

    def trajectory(x: np.ndarray) -> Trajectory:
        buf[1:-1] = x.reshape(n - 1, d)
        return Trajectory(grid, buf)

    return residual, jacobian, trajectory


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
    if init is None:  # on the checked problem's grid, dim and end values
        init = linear_initial_guess(grid, problem.qa, problem.qb)
    elif init.grid != grid or init.dim != d:
        raise DomainError("initial guess does not match the problem layout")
    elif not (
        np.array_equal(init.values[0], problem.qa)
        and np.array_equal(init.values[-1], problem.qb)
    ):
        raise DomainError("initial guess must satisfy the boundary values")
    _check_layout(kind, problem.lagrangian, init)
    residual, jacobian, trajectory = _bvp_functions(problem)
    diag = NewtonDiagnostics()
    try:
        x, _ = _newton(residual, init.values[1:-1].ravel(), cfg, jacobian, diag)
    except NewtonConvergenceError as exc:
        exc.last = trajectory(exc.last)
        raise
    return trajectory(x), diag


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
    march.  Each Lx and Lv call, at any d, gets Q_j and v written into
    one pair of read-only (d,) arrays, made once per march, so a callback
    must copy an argument it keeps and cannot write to one.  Each
    callback result is converted and shape-checked as an assembly's, and
    read off before the next write: as a float with d = 1, where the step
    works on Python floats (the scalar layout), bit for bit as the (d,)
    array layout, and as a copy with d > 1.

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
    spent = NewtonDiagnostics()  # every step's counters, each step's history
    worst, history = math.nan, []  # the largest final residual so far, its history
    held = None  # the last Jacobian built during the march
    # the callback arguments: read-only views of one pair of (d,) arrays,
    # into which each call writes Q_j and v; each result is read off before
    # the next write, as a float in the scalar layout (d = 1: Q_k,
    # residuals, Lx and Lv as floats), else as a copy
    at, read = (0, np.ndarray.item) if d == 1 else (..., np.ndarray.copy)
    xw, vw = np.empty(d), np.empty(d)
    xs, vs = xw.view(), vw.view()
    xs.flags.writeable = vs.flags.writeable = False
    Lx, Lv = lag.Lx, lag.Lv

    # step k's residual at Q_k = x, with prev = Q_{k-1}, t_j, and lx_prev,
    # lv_prev at node j-1; it keeps node j's own in lx_last, lv_last
    def step_residual(x):
        nonlocal lx_last, lv_last
        v = (x - prev) * hinv
        xw[at], vw[at] = prev if back else x, v
        lx_last = read(_call(Lx, "Lx", (d,), xs, vs, t_j))
        lv_last = read(_call(Lv, "Lv", (d,), xs, vs, t_j))
        return (lx_last if own else lx_prev) - (lv_last - lv_prev) * hinv

    q = [read(q0), read(q1)]  # Q_0 .. Q_k
    # node j-1 of step k = 2, with Lx there only when the row reads it
    t_j, xw[at], vw[at] = nodes[1 - back], q[1 - back], (q[1] - q[0]) * hinv
    lx_last = None if own else read(_call(Lx, "Lx", (d,), xs, vs, t_j))
    lv_last = read(_call(Lv, "Lv", (d,), xs, vs, t_j))
    for k in range(2, grid.n + 1):
        # a converged step's last residual call was at the Q_{k-1} it
        # returned, so its Lx and Lv are node j-1's, bit for bit
        prev, t_j, lx_prev, lv_prev = q[k - 1], nodes[k - back], lx_last, lv_last
        guess = 2.0 * prev - q[k - 2]
        try:
            x, held = _newton(step_residual, guess, cfg, _fd_jacobian, spent, held)
        except (NewtonConvergenceError, SingularMatrixError) as exc:
            exc.args = (f"march step k={k}: {exc}",)
            if isinstance(exc, NewtonConvergenceError):
                exc.last = np.reshape(exc.last, (d,))
            raise
        q.append(x)
        if not spent.records[-1][1] <= worst:
            history, worst = spent.records, spent.records[-1][1]
    spent.records = history
    return Trajectory(grid, np.reshape(q, (grid.n + 1, d))), spent


def march_direct_classical(
    lag: Lagrangian, grid: Grid, q0, q1, config: NewtonConfig | None = None, sigma: int = MINUS
) -> tuple[Trajectory, NewtonDiagnostics]:
    """:func:`march` of the direct classical kind on ``sigma``."""
    return march(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, sigma), lag, grid, q0, q1, config)
