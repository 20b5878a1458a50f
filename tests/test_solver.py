import dataclasses
import functools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracvi as fv
from fracvi.schemes import (
    SchemeFamily,
    SchemeKind,
    assemble_residual,
    jacobian,
)
from fracvi import fracops, lagrangians, schemes, solver
from fracvi.solver import (
    BVPProblem,
    NewtonConfig,
    NewtonConvergenceError,
    SingularMatrixError,
    linear_initial_guess,
    lu_solve,
    march_direct_classical,
    solve_bvp_newton,
)
from oracles import (
    chord_march,
    colored_fd_jacobian,
    column_fd_jacobian,
    coupled_lagrangian,
    dense_from_bands,
    fresh_jacobian_march,
    harmonic_exact,
    interior_residual,
    probe_linear_system,
)


def vi_classical(sigma=fv.MINUS):
    return SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, sigma)


def test_lu_identity():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_array_equal(lu_solve(np.eye(3), b), b)


def test_lu_hand_case():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(lu_solve(a, np.array([3.0, 4.0])), [1.0, 1.0], atol=1e-14)


def test_lu_requires_pivoting():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(lu_solve(a, np.array([2.0, 5.0])), [5.0, 2.0], atol=1e-15)


def test_lu_hilbert_vs_numpy_inverse():
    n = 4
    hilbert = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    mine = lu_solve(hilbert, b)
    reference = np.linalg.inv(hilbert) @ b
    assert np.max(np.abs(mine - reference)) <= 1e-8 * np.max(np.abs(reference))


def test_lu_residual_contract():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
    b = rng.standard_normal(12)
    x = lu_solve(a, b)
    assert np.max(np.abs(a @ x - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))


@pytest.mark.parametrize("a,b,message", [
    (np.zeros((2, 3)), np.zeros(2), r"matrix must be square, got \(2, 3\)"),
    (np.eye(3), np.zeros(2), "right-hand side length 2 != 3"),
])
def test_lu_refuses_a_mismatched_system(a, b, message):
    with pytest.raises(fv.DomainError, match=message):
        lu_solve(a, b)


def test_lu_singular_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(a, np.array([1.0, 2.0]))


def test_lu_one_by_one_is_lapacks_division():
    rng = np.random.default_rng(43)
    special = [0.0, -0.0, 5e-324, 1.7e308, math.inf, -math.inf, math.nan, 1.0 / 3.0]
    cases = [(rng.standard_normal((1, 1)) * 10.0 ** rng.integers(-300, 300),
              rng.standard_normal(1) * 10.0 ** rng.integers(-300, 300)) for _ in range(2000)]
    cases += [(np.array([[a]]), np.array([b])) for a in special[2:] for b in special]
    expected = [np.linalg.solve(a, b).tobytes() for a, b in cases]
    assert [lu_solve(a, b).tobytes() for a, b in cases] == expected
    for pivot in (0.0, -0.0):
        with pytest.raises(SingularMatrixError, match="singular matrix"):
            lu_solve(np.array([[pivot]]), np.array([1.0]))


def test_newton_config_validation():
    with pytest.raises(fv.DomainError):
        NewtonConfig(tol=0.0)
    with pytest.raises(fv.DomainError):
        NewtonConfig(max_iter=0)
    with pytest.raises(fv.DomainError, match="max_iter must be an integer, got 2.5"):
        NewtonConfig(max_iter=2.5)
    with pytest.raises(fv.DomainError, match="max_iter must be an integer, got True"):
        NewtonConfig(max_iter=True)  # allowed one iteration


@pytest.mark.parametrize("qa,qb,message", [
    # the guess had 2 columns and ended at [1, 1]
    ([0.0, 1.0], [1.0], r"boundary values must have dim 2, got \(2,\) and \(1,\)"),
    ([math.nan], [1.0], r"boundary values must be finite, got qa=\[nan\]"),
])
def test_linear_initial_guess_refuses_bad_endpoints(qa, qb, message):
    with pytest.raises(fv.DomainError, match=message):
        linear_initial_guess(fv.make_grid(0.0, 1.0, 4), qa, qb)


@pytest.mark.parametrize("field,value", [("tol", math.inf), ("tol", math.nan)])
def test_newton_config_refuses_non_finite_or_non_positive(field, value):
    with pytest.raises(fv.DomainError, match=f"{field} must be positive and finite, got {value}"):
        NewtonConfig(**{field: value})


def test_linear_initial_guess_endpoints_exact():
    grid = fv.make_grid(0.0, 1.0, 5)
    qa = np.array([0.1234567891234567, -2.0])
    qb = np.array([3.3333333333333335, 0.5])
    init = linear_initial_guess(grid, qa, qb)
    assert np.array_equal(init.values[0], qa)
    assert np.array_equal(init.values[-1], qb)
    mid = 0.5 * (qa + qb)
    assert np.max(np.abs(init.values[2] + init.values[3] - 2 * mid)) <= 1e-15


def test_free_problem_linear_exact():
    grid = fv.make_grid(0.0, 1.0, 8)
    problem = BVPProblem(grid, fv.free_particle(), vi_classical(), [0.0], [1.0])
    traj, diag = solve_bvp_newton(problem)
    np.testing.assert_array_equal(traj.values.ravel(), np.arange(9) / 8)
    assert diag.converged
    assert diag.iterations == 0  # linear initial guess already solves it


def test_boundary_values_bit_for_bit():
    qa = np.array([0.123456789123456789, -1.75])
    qb = np.array([2.5, 0.333333333333333333])
    grid = fv.make_grid(0.0, 1.0, 12)
    lag = fv.pendulum(1.0, dim=2)
    problem = BVPProblem(grid, lag, vi_classical(), qa, qb)
    traj, _ = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert np.array_equal(traj.values[0], problem.qa)
    assert np.array_equal(traj.values[-1], problem.qb)


def test_init_must_respect_boundaries():
    grid = fv.make_grid(0.0, 1.0, 8)
    problem = BVPProblem(grid, fv.free_particle(), vi_classical(), [0.0], [1.0])
    bad = fv.Trajectory(grid, np.linspace(0.5, 1.0, 9))
    with pytest.raises(fv.DomainError, match="initial guess must satisfy the boundary values"):
        solve_bvp_newton(problem, init=bad)


def test_init_must_lie_on_the_problem_grid():
    problem = BVPProblem(fv.make_grid(0.0, 1.0, 8), fv.free_particle(), vi_classical(),
                         [0.0], [1.0])
    other = linear_initial_guess(fv.make_grid(0.0, 2.0, 8), [0.0], [1.0])
    with pytest.raises(fv.DomainError, match="initial guess does not match the problem layout"):
        solve_bvp_newton(problem, init=other)


@pytest.mark.parametrize("n,dim,ends,message", [
    (8, 2, (0.0, 1.0), "initial guess does not match the problem layout"),
    (8, 1, (0.0, 0.5), "initial guess must satisfy the boundary values"),
    (2, 1, (0.5, 1.0), "initial guess must satisfy the boundary values"),
], ids=["dim-before-ends", "qb", "ends-before-n"])
def test_a_callers_guess_is_refused_in_order(n, dim, ends, message):
    # the grid or dim, then the end values, then the kind's layout: the
    # first refusal a guess meets is the one it gets
    grid = fv.make_grid(0.0, 1.0, n)
    kind = SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.MINUS)
    problem = BVPProblem(grid, fv.free_particle(), kind, [0.0], [1.0])
    guess = linear_initial_guess(grid, [ends[0]] * dim, [ends[1]] * dim)
    with pytest.raises(fv.DomainError, match=message):
        solve_bvp_newton(problem, init=guess)


def test_the_default_guess_meets_the_layout_check():
    kind = SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.MINUS)
    problem = BVPProblem(fv.make_grid(0.0, 1.0, 2), fv.free_particle(), kind, [0.0], [1.0])
    with pytest.raises(fv.DomainError, match="direct classical residual needs n >= 3"):
        solve_bvp_newton(problem)


def test_harmonic_second_order_convergence():
    omega = 1.0
    qa, qb = 1.0, math.cos(1.0) + 0.5 * math.sin(1.0)
    exact = harmonic_exact(omega, 0.0, 1.0, qa, qb)
    lag = fv.harmonic_oscillator(omega)
    errors = []
    cfg = NewtonConfig(tol=1e-9)
    for n in (16, 32, 64, 128):
        grid = fv.make_grid(0.0, 1.0, n)
        problem = BVPProblem(grid, lag, vi_classical(), [qa], [qb])
        traj, _ = solve_bvp_newton(problem, config=cfg)
        ref = np.array([exact(t) for t in grid.nodes])[:, None]
        errors.append(float(np.max(np.abs(traj.values - ref))))
    for i in range(3):
        assert 1.8 <= math.log2(errors[i] / errors[i + 1]) <= 2.2


def test_newton_single_step_matches_direct_solve():
    # quadratic Lagrangian: one Newton step from a random start lands on the
    # direct linear-solve solution
    rng = np.random.default_rng(43)
    grid = fv.make_grid(0.0, 1.0, 10)
    lag = fv.harmonic_oscillator(1.0)
    problem = BVPProblem(grid, lag, vi_classical(), [0.0], [1.0])

    def residual(x):
        vals = np.vstack([[0.0], x[:, None], [1.0]])
        return assemble_residual(problem.scheme, lag, fv.Trajectory(grid, vals)).values.ravel()

    a_mat, c_vec = probe_linear_system(residual, 9)
    direct = np.linalg.solve(a_mat, -c_vec)

    init_vals = np.linspace(0.0, 1.0, 11)
    init_vals[1:-1] += rng.standard_normal(9)
    init = fv.Trajectory(grid, init_vals)
    with pytest.raises(NewtonConvergenceError) as err:
        solve_bvp_newton(problem, init=init, config=NewtonConfig(tol=1e-300, max_iter=1))
    one_step = err.value.last.values[1:-1].ravel()
    assert np.max(np.abs(one_step - direct)) <= 1e-6 * (1.0 + np.max(np.abs(direct)))


def test_newton_few_iterations_on_linear_scheme():
    rng = np.random.default_rng(44)
    grid = fv.make_grid(0.0, 1.0, 12)
    problem = BVPProblem(grid, fv.harmonic_oscillator(1.0), vi_classical(), [0.0], [1.0])
    init_vals = np.linspace(0.0, 1.0, 13)
    init_vals[1:-1] += rng.standard_normal(11)
    traj, diag = solve_bvp_newton(
        problem, init=fv.Trajectory(grid, init_vals), config=NewtonConfig(tol=1e-10)
    )
    assert diag.converged
    assert diag.iterations <= 3


def test_fractional_newton_matches_dense_solve():
    # linear fractional system: Newton against a probed-matrix LAPACK solve
    grid = fv.make_grid(0.0, 1.0, 8)
    lag = fv.harmonic_oscillator(1.0)
    kind = SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.MINUS, 0.5)
    problem = BVPProblem(grid, lag, kind, [0.0], [1.0])
    traj, diag = solve_bvp_newton(problem)
    assert diag.converged

    def residual(x):
        vals = np.vstack([[0.0], x[:, None], [1.0]])
        return assemble_residual(kind, lag, fv.Trajectory(grid, vals)).values.ravel()

    a_mat, c_vec = probe_linear_system(residual, 7)
    direct = np.linalg.solve(a_mat, -c_vec)
    assert np.max(np.abs(traj.values[1:-1].ravel() - direct)) <= 1e-10


def test_nonconvergence_reports_history():
    grid = fv.make_grid(0.0, 1.0, 8)
    problem = BVPProblem(grid, fv.pendulum(1.0), vi_classical(), [0.0], [3.0])
    with pytest.raises(NewtonConvergenceError) as err:
        solve_bvp_newton(problem, config=NewtonConfig(tol=1e-300, max_iter=2))
    assert err.value.diagnostics.records
    assert isinstance(err.value.last, fv.Trajectory)


def test_diagnostics_csv_layout(tmp_path):
    grid = fv.make_grid(0.0, 1.0, 8)
    problem = BVPProblem(grid, fv.harmonic_oscillator(1.0), vi_classical(), [0.0], [1.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    diag.write_csv(tmp_path / "diag.csv")
    text = (tmp_path / "diag.csv").read_bytes().decode()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,residual_norm,step_norm"
    assert lines[1].startswith("0,")


def test_diagnostics_csv_bytes(tmp_path):
    records = [(0, 1.5, 0.0), (1, math.nan, -1e-300), (2, 0.1, math.inf)]
    diag = solver.NewtonDiagnostics(records=records)
    diag.write_csv(tmp_path / "diag.csv")
    assert (tmp_path / "diag.csv").read_bytes() == (
        b"iter,residual_norm,step_norm\n0,1.5,0\n1,nan,-1e-300\n"
        b"2,0.10000000000000001,inf\n"
    )


def test_march_free_exact_linear():
    grid = fv.make_grid(0.0, 1.0, 8)
    traj, _ = march_direct_classical(fv.free_particle(), grid, [0.0], [0.125])
    np.testing.assert_array_equal(traj.values.ravel(), np.arange(9) / 8)


def test_march_zero_fixed_point():
    grid = fv.make_grid(0.0, 1.0, 10)
    traj, _ = march_direct_classical(fv.pendulum(1.0), grid, [0.0], [0.0])
    assert fv.inf_norm(traj) == 0.0


def test_march_satisfies_direct_residual():
    grid = fv.make_grid(0.0, 1.0, 16)
    lag = fv.pendulum(1.2)
    cfg = NewtonConfig(tol=1e-11)
    traj, _ = march_direct_classical(lag, grid, [0.1], [0.15], config=cfg)
    res = assemble_residual(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.MINUS), lag, traj)
    assert fv.inf_norm(res) <= 1e-10


def count_fd_jacobians(monkeypatch) -> list:
    """Record one entry per dense finite-difference Jacobian that marching builds."""
    builds = []
    fd_jacobian = solver._fd_jacobian

    def built(*args, **kwargs):
        builds.append(1)
        return fd_jacobian(*args, **kwargs)

    monkeypatch.setattr(solver, "_fd_jacobian", built)
    return builds


def check_summed_counters(monkeypatch, sigma, lx_before):
    """A direct classical march on ``sigma`` reports counters summed over
    its steps, and makes ``lx_before`` Lx calls before its first step."""
    steps = []  # each step's own diagnostics
    newton = solver._newton

    def counters(diag):
        return diag.residual_evals, diag.jacobian_builds, diag.backtracks

    def recorded(fun, x0, cfg, jacobian, diag, held=None):
        # the march hands every step one diagnostics object, which sums the
        # counters and holds the step's own history
        before = counters(diag)
        out = newton(fun, x0, cfg, jacobian, diag, held)
        added = [now - then for now, then in zip(counters(diag), before)]
        steps.append(solver.NewtonDiagnostics(diag.records, diag.converged, *added))
        return out

    monkeypatch.setattr(solver, "_newton", recorded)
    builds = count_fd_jacobians(monkeypatch)
    grid = fv.make_grid(0.0, 1.0, 16)
    lag = fv.pendulum(1.2)
    lx_calls = []

    def Lx(x, v, t):
        lx_calls.append(1)
        return lag.Lx(x, v, t)

    counted = dataclasses.replace(lag, Lx=Lx)
    traj, diag = march_direct_classical(
        counted, grid, [0.1], [0.15], config=NewtonConfig(tol=1e-11), sigma=sigma
    )
    assert diag.converged and traj.grid.n == 16 and len(steps) == 15
    # every step residual makes one Lx call
    assert diag.residual_evals + lx_before == len(lx_calls)
    assert diag.residual_evals == sum(s.residual_evals for s in steps)
    assert diag.jacobian_builds == len(builds) == sum(s.jacobian_builds for s in steps)
    # the first iteration of every step after k = 2 reuses the held Jacobian
    assert all(s.iterations >= 1 for s in steps)
    assert diag.jacobian_builds == 1 + sum(s.iterations - 1 for s in steps)
    assert diag.backtracks == sum(s.backtracks for s in steps)
    assert diag.records == max(steps, key=lambda s: s.final_residual).records


def test_march_reports_summed_counters(monkeypatch):
    check_summed_counters(monkeypatch, fv.MINUS, 0)


def test_plus_march_reads_lx_once_before_its_first_step(monkeypatch):
    # the sigma + direct row reads the previous node's Lx, so the march
    # calls Lx once at node 0 before step k = 2; sigma - reads its own
    check_summed_counters(monkeypatch, fv.PLUS, 1)


def test_march_reuses_each_steps_last_lv():
    # a converged step's last residual call is at the value it returns, so
    # its Lv serves the next step: one Lv call per step residual plus the
    # one at node 1
    lag = fv.pendulum(1.2)
    lv_calls = []

    def Lv(x, v, t):
        lv_calls.append(1)
        return lag.Lv(x, v, t)

    grid = fv.make_grid(0.0, 1.0, 64)
    cfg = NewtonConfig(tol=1e-11)
    traj, diag = march_direct_classical(dataclasses.replace(lag, Lv=Lv), grid, [0.1], [0.15], config=cfg)
    assert len(lv_calls) == diag.residual_evals + 1
    oracle = fresh_jacobian_march(lag, grid, np.array([0.1]), np.array([0.15]), 1e-11)
    assert np.max(np.abs(traj.values - oracle)) <= 1e-9


def test_march_linear_problem_builds_one_jacobian():
    # the harmonic step Jacobian is constant, so the one built at k = 2
    # serves every step: one chord iteration of two residual calls per step
    n = 2048
    grid = fv.make_grid(0.0, 1.0, n)
    lag = fv.harmonic_oscillator(1.0)
    _, diag = march_direct_classical(lag, grid, [1.0], [math.cos(grid.h)], config=NewtonConfig(tol=1e-9))
    assert diag.jacobian_builds == 1
    assert diag.residual_evals == 2 * (n - 1) + 1
    assert diag.backtracks == 0


def _march_gap_bound(tol, omega, span, max_q, h):
    """Bound on the gap between two marches from the same (Q_0, Q_1) whose
    step residuals each stay within ``tol``.

    For U with |U''| <= omega^2 the gap delta obeys
    (delta_k - 2 delta_{k-1} + delta_{k-2})/h^2 = rho_k - U''(xi_k) delta_k,
    with |rho_k| at most twice the step target plus the rounding of the
    second difference, 4 eps max|Q| / h^2.  Its majorant solves
    e'' = rho + omega^2 e, e(0) = e'(0) = 0:
    e(t) = rho (cosh(omega t) - 1) / omega^2 (rho t^2 / 2 as omega -> 0).
    A factor 2 covers the discrete recursion against its continuous limit.
    """
    rho = 2.0 * (tol + 4.0 * np.finfo(float).eps * max_q / h**2)
    return 2.0 * rho * (math.cosh(omega * span) - 1.0) / omega**2


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("problem", ["harmonic", "pendulum"])
def test_chord_march_matches_fresh_jacobian_march(problem, dim):
    tol = 1e-9
    rng = np.random.default_rng(dim)
    make = fv.harmonic_oscillator if problem == "harmonic" else fv.pendulum
    for omega in (0.5, 2.0):
        lag = make(omega, dim=dim)
        for n in (16, 130, 2048):
            grid = fv.make_grid(0.0, 1.0, n)
            q0 = rng.uniform(-0.8, 0.8, dim)
            q1 = q0 + grid.h * rng.uniform(-1.0, 1.0, dim)
            traj, _ = march_direct_classical(lag, grid, q0, q1, config=NewtonConfig(tol=tol))
            res = assemble_residual(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.MINUS), lag, traj)
            assert np.max(np.abs(res.values)) <= tol, (omega, n)
            oracle = fresh_jacobian_march(lag, grid, q0, q1, tol)
            max_q = float(np.max(np.abs(oracle)))
            bound = _march_gap_bound(tol, omega, 1.0, max_q, grid.h)
            assert np.max(np.abs(traj.values - oracle)) <= bound, (omega, n)


def nan_lx(lag, after=-math.inf):
    # Lx turns NaN at times past ``after``
    def Lx(x, v, t):
        return np.where(np.asarray(t)[..., None] > after, math.nan, lag.Lx(x, v, t))

    return dataclasses.replace(lag, Lx=Lx)


def _march_outcome(march, lag, grid, q0, q1, tol, max_iter=50):
    """Everything a march reports, as bytes and strings: the trajectory,
    the history and the three counters, or for a failure the message, the
    last iterate, the history and the counters."""
    try:
        values, diag = march(lag, grid, q0, q1, tol, max_iter)
        failure = None
    except NewtonConvergenceError as exc:
        values, diag, failure = exc.last, exc.diagnostics, str(exc)
    counters = (diag.residual_evals, diag.jacobian_builds, diag.backtracks, diag.converged)
    return failure, np.asarray(values).tobytes(), np.array(diag.records).tobytes(), counters


def _library_march(lag, grid, q0, q1, tol, max_iter, sigma=fv.MINUS):
    traj, diag = march_direct_classical(lag, grid, q0, q1, NewtonConfig(tol, max_iter), sigma)
    return traj.values, diag


_MARCH_PROBLEMS = {
    "free": fv.free_particle,
    "harmonic": lambda dim: fv.harmonic_oscillator(1.5, dim=dim),
    "pendulum": lambda dim: fv.pendulum(2.0, dim=dim),
    "coupled": coupled_lagrangian,
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("problem", sorted(_MARCH_PROBLEMS))
def test_march_matches_frozen_chord_march_bytes(problem, dim):
    # at n = 2048 most of these marches stall at tol 1e-11 and 1e-12, under
    # the step residual's rounding floor, so line-search stalls are compared
    # as well as converged marches
    lag = _MARCH_PROBLEMS[problem](dim=dim)
    rng = np.random.default_rng(dim)
    for n in (16, 130, 2048):
        grid = fv.make_grid(0.0, 1.0, n)
        q0 = rng.uniform(-0.8, 0.8, dim)
        q1 = q0 + grid.h * rng.uniform(-1.0, 1.0, dim)
        for tol in (1e-9, 1e-11, 1e-12):
            got = _march_outcome(_library_march, lag, grid, q0, q1, tol)
            assert got == _march_outcome(chord_march, lag, grid, q0, q1, tol), (n, tol)


# (Lagrangian, n, Q_0, step Q_1 - Q_0 in units of h, max_iter, failure)
_MARCH_EDGE_CASES = {
    "nan-step": (nan_lx(fv.pendulum(1.2), after=0.5), 64, 0.1, 3.2, 50, "non-finite residual"),
    "max-iter": (fv.pendulum(1.2, dim=2), 64, 0.1, 3.2, 1, "no convergence after 1 iterations"),
    "backtrack": (fv.pendulum(20.0), 8, 2.0, 10.0, 50, None),
    "backtrack-stall": (fv.pendulum(20.0, dim=2), 16, 2.0, 5.0, 50, "line search stalled"),
}


@pytest.mark.parametrize("case", sorted(_MARCH_EDGE_CASES))
def test_march_edge_case_matches_frozen_chord_march_bytes(case):
    lag, n, start, slope, max_iter, failure = _MARCH_EDGE_CASES[case]
    grid = fv.make_grid(0.0, 1.0, n)
    q0 = np.full(lag.dim, start)
    q1 = q0 + slope * grid.h
    got = _march_outcome(_library_march, lag, grid, q0, q1, 1e-11, max_iter)
    assert got[0] is None if failure is None else failure in got[0]
    if case.startswith("backtrack"):
        assert got[3][2] >= 1  # the line search shortened a step
    assert got == _march_outcome(chord_march, lag, grid, q0, q1, 1e-11, max_iter)


@pytest.mark.parametrize("dim", [1, 2])
def test_march_takes_an_lv_that_returns_a_list(dim):
    # as every assembly does, each march step converts a callback's list
    lag = fv.harmonic_oscillator(1.0, dim=dim)
    listed = dataclasses.replace(lag, Lv=lambda x, v, t: np.asarray(v).tolist())
    grid = fv.make_grid(0.0, 1.0, 16)
    q0 = np.linspace(0.1, 0.2, dim)
    q1 = q0 + 0.05
    got = _march_outcome(_library_march, listed, grid, q0, q1, 1e-11)
    assert got[0] is None
    assert got == _march_outcome(_library_march, lag, grid, q0, q1, 1e-11)


def recording(lag, args):
    """``lag`` with Lx and Lv appending their x and v arguments to ``args``."""

    def wrap(fn):
        def call(x, v, t):
            args.extend([x, v])
            return fn(x, v, t)

        return call

    return dataclasses.replace(lag, Lx=wrap(lag.Lx), Lv=wrap(lag.Lv))


def test_one_unknown_march_hands_callbacks_float_arrays():
    # a d = 1 march steps on floats, but every Lx and Lv call, the Jacobian
    # columns and the line search's trials included, gets (1,) float arrays
    lag, n, start, slope, max_iter, _ = _MARCH_EDGE_CASES["backtrack"]
    args = []
    recorded = recording(lag, args)
    grid = fv.make_grid(0.0, 1.0, n)
    _, diag = march_direct_classical(
        recorded, grid, [start], [start + slope * grid.h], NewtonConfig(1e-11, max_iter)
    )
    assert diag.jacobian_builds >= 1 and diag.backtracks >= 1
    assert len(args) == 2 * (2 * diag.residual_evals + 1)
    assert all(type(a) is np.ndarray and a.shape == (1,) and a.dtype == np.float64 for a in args)


def inverted_oscillator(itself="", dim=1):
    """U = -|x|^2/2 in ``dim`` dimensions, so Lx = x and Lv = v: the
    callback named by ``itself`` returns its argument itself, the other
    returns a copy."""

    def returning(name, pick):
        if name == itself:
            return lambda x, v, t: pick(x, v)
        return lambda x, v, t: pick(x, v).copy()

    return fv.Lagrangian(
        L=lambda x, v, t: 0.5 * np.sum(v * v + x * x, axis=-1),
        Lx=returning("Lx", lambda x, v: x),
        Lv=returning("Lv", lambda x, v: v),
        dim=dim,
    )


@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("itself", ["Lx", "Lv"])
def test_march_argument_pair_never_leaks_into_a_result(itself, sigma):
    # a one-unknown march writes Q_j and v into one read-only pair of (1,)
    # arrays for every callback call, so a callback that returns its
    # argument itself must march as one that returns a copy
    args = []
    recorded = recording(inverted_oscillator(itself), args)
    grid = fv.make_grid(0.0, 1.0, 64)
    march = functools.partial(_library_march, sigma=sigma)
    got = _march_outcome(march, recorded, grid, np.array([0.3]), np.array([0.32]), 1e-11)
    assert got[0] is None
    assert got == _march_outcome(march, inverted_oscillator(), grid, [0.3], [0.32], 1e-11)
    assert len(args) >= 4 * 63
    for a in args:
        assert type(a) is np.ndarray and a.shape == (1,) and a.dtype == np.float64
        assert not a.flags.writeable


@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("name", ["Lx", "Lv"])
def test_one_unknown_march_refuses_a_callback_that_writes_its_x(name, sigma):
    def writing(x, v, t):
        x[0] = 0.0
        return np.zeros(1)

    lag = dataclasses.replace(inverted_oscillator(), **{name: writing})
    q0, q1 = np.array([0.3]), np.array([0.32])
    with pytest.raises(ValueError, match="read-only"):
        march_direct_classical(lag, fv.make_grid(0.0, 1.0, 64), q0, q1, sigma=sigma)
    assert q0[0] == 0.3 and q1[0] == 0.32  # the caller's start values are never handed over


@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("itself", ["Lx", "Lv"])
@pytest.mark.parametrize("dim", [2, 3])
def test_wide_march_argument_pair_never_leaks_into_a_result(dim, itself, sigma):
    # a march of any d writes Q_j and v into one read-only pair of (d,)
    # arrays and copies each result off it before the next write
    args = []
    recorded = recording(inverted_oscillator(itself, dim), args)
    grid = fv.make_grid(0.0, 1.0, 64)
    march = functools.partial(_library_march, sigma=sigma)
    q0 = np.linspace(0.3, 0.5, dim)
    q1 = q0 + np.linspace(0.02, -0.01, dim)
    got = _march_outcome(march, recorded, grid, q0, q1, 1e-11)
    assert got[0] is None
    copying = inverted_oscillator(dim=dim)
    assert got == _march_outcome(march, copying, grid, q0.tolist(), q1.tolist(), 1e-11)
    assert len(args) >= 4 * 63
    for a in args:
        assert type(a) is np.ndarray and a.shape == (dim,) and a.dtype == np.float64
        assert not a.flags.writeable


@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("arg", ["x", "v"])
@pytest.mark.parametrize("name", ["Lx", "Lv"])
@pytest.mark.parametrize("dim", [2, 3])
def test_wide_march_refuses_a_callback_that_writes_an_argument(dim, name, arg, sigma):
    def writing(x, v, t):
        {"x": x, "v": v}[arg][0] = 99.0
        return np.zeros(dim)

    lag = dataclasses.replace(inverted_oscillator(dim=dim), **{name: writing})
    q0 = np.linspace(0.3, 0.5, dim)
    q1 = q0 + 0.02
    kept0, kept1 = q0.copy(), q1.copy()
    with pytest.raises(ValueError, match="read-only"):
        march_direct_classical(lag, fv.make_grid(0.0, 1.0, 16), q0, q1, sigma=sigma)
    # the caller's start values are never handed over
    assert q0.tobytes() == kept0.tobytes() and q1.tobytes() == kept1.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_march_zero_jacobian_is_singular(dim):
    # a step residual that Q_k does not move has a zero Jacobian
    lag = dataclasses.replace(
        fv.free_particle(dim),
        Lx=lambda x, v, t: np.ones_like(x),
        Lv=lambda x, v, t: np.zeros_like(v),
    )
    with pytest.raises(SingularMatrixError, match="singular matrix") as err:
        march_direct_classical(lag, fv.make_grid(0.0, 1.0, 8), np.zeros(dim), np.zeros(dim))
    assert str(err.value) == "march step k=2: singular matrix"


@pytest.mark.parametrize("q0, q1", [([math.nan], [0.0]), ([0.0], [math.inf])])
def test_march_refuses_non_finite_initial_values(q0, q1):
    grid = fv.make_grid(0.0, 1.0, 16)
    with pytest.raises(fv.DomainError, match="initial values must be finite, got q0="):
        march_direct_classical(fv.harmonic_oscillator(1.0), grid, q0, q1)


def test_march_failure_carries_step_diagnostics():
    # at n = 4096 the default 1e-12 target lies below the rounding floor of
    # the step residual, which scales like 1/h^2
    grid = fv.make_grid(0.0, 1.0, 4096)
    with pytest.raises(NewtonConvergenceError) as err:
        march_direct_classical(fv.harmonic_oscillator(1.0), grid, [0.0], [grid.h])
    assert err.value.diagnostics.records
    assert not err.value.diagnostics.converged
    assert str(err.value).startswith("march step k=")
    assert "target 1.000e-12" in str(err.value)
    last = err.value.last
    assert type(last) is np.ndarray and last.shape == (1,) and last.dtype == np.float64


def test_march_first_order_convergence():
    omega = 1.0
    exact = harmonic_exact(omega, 0.0, 1.0, 1.0, math.cos(1.0) + 0.5 * math.sin(1.0))
    lag = fv.harmonic_oscillator(omega)
    cfg = NewtonConfig(tol=1e-9)
    errors = []
    for n in (16, 32, 64, 128):
        grid = fv.make_grid(0.0, 1.0, n)
        traj, _ = march_direct_classical(
            lag, grid, [exact(grid.node(0))], [exact(grid.node(1))], config=cfg
        )
        ref = np.array([exact(t) for t in grid.nodes])[:, None]
        errors.append(float(np.max(np.abs(traj.values - ref))))
    for i in range(3):
        assert 0.7 <= math.log2(errors[i] / errors[i + 1]) <= 1.3


def harmonic_march(family, sigma, n, dim=1, h=0.01):
    """A march of the omega = 1 harmonic oscillator with step h from
    Q_0 = (1, 0, ..), Q_1 = (cos h, sin(h)/2, ..)."""
    q0, q1 = np.zeros(dim), np.zeros(dim)
    q0[0], q1[0] = 1.0, math.cos(h)
    q1[1:] = 0.5 * math.sin(h)
    grid = fv.make_grid(0.0, n * h, n)
    assert grid.h == h
    lag = fv.harmonic_oscillator(1.0, dim=dim)
    traj, _ = solver.march(SchemeKind(family, sigma), lag, grid, q0, q1, NewtonConfig(1e-9))
    return traj.values


@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
def test_march_energy_and_momentum_separate_the_routes(sigma):
    # the claim in the dynamics (Marsden & West, Acta Numerica 2001; Hairer,
    # Lubich & Wanner 2006, ch. VI and IX): the direct symmetric scheme
    # scales the energy E_k = v_k^2/2 + Q_k^2/2 by (1 + h^2)^sigma a step,
    # while the variational one, by either route, keeps its energy error
    # bounded and its discrete angular momentum Q_{k-1} x Q_k / h
    h, n = 0.01, 10_000  # T = 100, and T/10 is 1000 steps

    def energy(q):
        return 0.5 * (np.diff(q[:, 0]) / h) ** 2 + 0.5 * q[1:, 0] ** 2

    e = energy(harmonic_march(SchemeFamily.DIRECT_CLASSICAL, sigma, n))
    # measured 0.36793 against 0.36790 (sigma -), 2.7422 against 2.7181 (+)
    assert e[-1] / e[0] == pytest.approx((1.0 + h * h) ** (sigma * n), rel=0.01)
    for family in (SchemeFamily.VARIATIONAL_CLASSICAL, SchemeFamily.ASYMMETRIC_DIRECT):
        e = energy(harmonic_march(family, sigma, n))
        deviation = np.abs(e / e[0] - 1.0)
        # about 5.075e-3 = O(h) by T/10, and no more by T
        assert deviation[:1000].max() < 0.01
        assert deviation.max() <= 1.01 * deviation[:1000].max()

    def momentum(family):
        q = harmonic_march(family, sigma, 1000, dim=2)
        moment = (q[:-1, 0] * q[1:, 1] - q[:-1, 1] * q[1:, 0]) / h
        return np.max(np.abs(moment / moment[0] - 1.0))

    assert momentum(SchemeFamily.VARIATIONAL_CLASSICAL) <= 1e-10  # measured 1.7e-12
    # 1 - (1 + h^2)^-1000 = 0.095 lost (sigma -), 0.105 gained (sigma +)
    assert momentum(SchemeFamily.DIRECT_CLASSICAL) >= 0.09


def test_fractional_solve_budget():
    # dense O(n^2 d^2) assembly must stay affordable at n = 256
    start = time.monotonic()
    grid = fv.make_grid(0.0, 1.0, 256)
    kind = SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.MINUS, 0.5)
    problem = BVPProblem(grid, fv.harmonic_oscillator(1.0), kind, [0.0], [1.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10, max_iter=20))
    elapsed = time.monotonic() - start
    assert diag.converged
    assert elapsed < 30.0


@pytest.mark.parametrize("qa,qb", [([math.nan], [1.0]), ([0.0], [math.inf])])
def test_bvp_rejects_non_finite_boundary_values(qa, qb):
    grid = fv.make_grid(0.0, 1.0, 8)
    with pytest.raises(fv.DomainError, match="boundary values must be finite"):
        BVPProblem(grid, fv.free_particle(), vi_classical(), qa, qb)


CLASSICAL_FAMILIES = (
    SchemeFamily.DIRECT_CLASSICAL,
    SchemeFamily.VARIATIONAL_CLASSICAL,
    SchemeFamily.ASYMMETRIC_DIRECT,
)
PROBLEMS = {
    "harmonic": lambda d: fv.harmonic_oscillator(1.3, dim=d),
    "pendulum": lambda d: fv.pendulum(1.3, dim=d),
    "coupled": coupled_lagrangian,
}


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("family", CLASSICAL_FAMILIES, ids=lambda f: f.value)
def test_grouped_jacobian_is_bitwise_the_dense_one(family, sigma, problem):
    # the colored oracle that the banded Jacobian is checked against
    kind = SchemeKind(family, sigma)
    rng = np.random.default_rng(61)
    for d in (1, 2, 3):
        lag = PROBLEMS[problem](d)
        for n in (2, 3, 4, 5, 7, 16, 33):
            if family is SchemeFamily.DIRECT_CLASSICAL and n < 3:
                continue
            grid = fv.make_grid(-0.2, 1.1, n)
            qa, qb = rng.standard_normal((2, 1, d))
            fun = interior_residual(kind, lag, grid, qa, qb)
            calls = []

            def counted(x):
                calls.append(1)
                return fun(x)

            x = rng.standard_normal((n - 1) * d)
            r = fun(x)
            grouped = colored_fd_jacobian(counted, x, r, d)
            assert np.array_equal(grouped, column_fd_jacobian(fun, x, r))
            assert len(calls) == min(3, n - 1) * d


def test_dense_jacobian_for_fractional_schemes():
    # the marching Jacobian's build, on a layout of several nodes
    kind = SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.PLUS, 0.6)
    lag = coupled_lagrangian(2)
    grid = fv.make_grid(0.0, 1.0, 9)
    rng = np.random.default_rng(62)
    fun = interior_residual(kind, lag, grid, *rng.standard_normal((2, 1, 2)))
    x = rng.standard_normal(16)
    r = fun(x)
    dense = solver._fd_jacobian(fun, x, r)
    assert np.array_equal(dense, column_fd_jacobian(fun, x, r))


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("family", CLASSICAL_FAMILIES, ids=lambda f: f.value)
def test_banded_newton_system_matches_dense(family, sigma, problem):
    # n - 1 nodes: one block, sizes solved densely at once, and cyclic
    # reduction over odd counts (65, 129) and even ones, up to six levels
    kind = SchemeKind(family, sigma)
    rng = np.random.default_rng(64)
    for d in (1, 2, 3):
        callbacks = []
        if problem == "coupled":
            lag = counted_lagrangian(coupled_lagrangian(d), callbacks)
        else:
            lag = counted_lagrangian(fv.builtin_problem(problem, omega=2.0, dim=d), callbacks)
        for n in (2, 3, 4, 5, 7, 16, 33, 66, 130, 257, 1025):
            if family is SchemeFamily.DIRECT_CLASSICAL and n < 3:
                continue
            nodes = n - 1
            grid = fv.make_grid(-0.2, 1.1, n)
            qa, qb = rng.standard_normal((2, 1, d))
            fun = interior_residual(kind, lag, grid, qa, qb)
            x = rng.standard_normal(nodes * d)
            r = fun(x)
            callbacks.clear()
            q = fv.Trajectory(grid, np.vstack([qa, x.reshape(nodes, d), qb]))
            bands = jacobian(kind, lag, q)
            assert len(callbacks) == 4 * d + 2
            assert bands.shape == (3, nodes, d, d)
            # the blocks that would couple to the pinned end nodes
            assert not bands[0, 0].any() and not bands[2, -1].any()
            dense = dense_from_bands(bands)
            fd = colored_fd_jacobian(fun, x, r, d)
            gap = np.max(np.abs(dense - fd))
            assert gap <= 1e-6 * np.max(np.abs(fd)), (d, n, gap)

            banded = solver._block_tridiagonal_solve(bands, -r)
            # two backward-stable solves differ by up to cond * eps, and for
            # the mechanical problems the condition number grows like
            # nodes^2 (8.5e4 at 256 nodes); the coupled problem's quartic
            # term can bring its operator near a resonance (cond 3.9e6 at
            # 129 nodes), so only its backward error is bounded
            if problem != "coupled":
                reference = lu_solve(dense, -r)
                tol = 1e-12 * max(1.0, nodes / 256) ** 2
                gap = np.max(np.abs(banded - reference))
                assert gap <= tol * np.max(np.abs(reference)), (d, n, gap)
            backward = np.max(np.abs(dense @ banded + r))
            scale = np.max(np.abs(dense).sum(axis=1)) * np.max(np.abs(banded))
            assert backward <= 1e-14 * scale, (d, n, backward / scale)


@pytest.mark.parametrize("omega", [10.0, 100.0])
@pytest.mark.parametrize("d", [1, 2])
def test_cyclic_reduction_on_an_indefinite_jacobian(omega, d):
    # omega far above pi over the interval length: the harmonic Jacobian
    # has eigenvalues of both signs, and no pivoting crosses blocks, yet
    # the reduction stays backward stable (about 2e-16 relative)
    kind = vi_classical()
    lag = fv.harmonic_oscillator(omega, dim=d)
    grid = fv.make_grid(0.0, 1.0, 1025)
    q = linear_initial_guess(grid, np.zeros(d), np.ones(d))
    bands = jacobian(kind, lag, q)
    r = assemble_residual(kind, lag, q).values.ravel()
    banded = solver._block_tridiagonal_solve(bands, -r)
    dense = dense_from_bands(bands)
    t = grid.nodes[1:-1]
    smooth = np.repeat(np.sin(np.pi * t), d)
    rough = np.repeat((-1.0) ** np.arange(t.size), d)
    assert smooth @ dense @ smooth < 0 < rough @ dense @ rough
    backward = np.max(np.abs(dense @ banded + r))
    scale = np.max(np.abs(dense).sum(axis=1)) * np.max(np.abs(banded))
    assert backward <= 1e-14 * scale, backward / scale


#: The scan's omega grid: 60 points in [0.5, 100].
SCAN_OMEGAS = np.linspace(0.5, 100.0, 60)


@pytest.mark.parametrize("d,nodes,omega", [
    (1, 65, SCAN_OMEGAS[55]), (1, 68, SCAN_OMEGAS[57]), (1, 68, SCAN_OMEGAS[58]),
    (2, 65, SCAN_OMEGAS[55]), (3, 65, SCAN_OMEGAS[55]), (3, 68, SCAN_OMEGAS[31]),
])
def test_cyclic_reduction_levels_do_not_pivot(d, nodes, omega):
    # the worst cases of a scan of indefinite harmonic bands just above the
    # direct bottom (omega 93.3, 96.6, 98.3 and 52.8): the levels eliminate
    # without pivoting, and their backward error passes the 1e-14 that the
    # other tests state; over these 50 right-hand sides it peaks at 2.4e-13
    # (d = 1, 65 nodes, omega 93.3)
    lag = fv.harmonic_oscillator(omega, dim=d)
    q = linear_initial_guess(fv.make_grid(0.0, 1.0, nodes + 1), np.zeros(d), np.ones(d))
    bands = jacobian(vi_classical(), lag, q)
    dense = dense_from_bands(bands)
    rng = np.random.default_rng(38)
    for _ in range(50):
        b = rng.standard_normal(nodes * d)
        x = solver._block_tridiagonal_solve(bands, b)
        backward = np.max(np.abs(dense @ x - b))
        scale = np.max(np.abs(dense).sum(axis=1)) * np.max(np.abs(x))
        assert backward <= 5e-13 * scale, backward / scale


@pytest.mark.parametrize("nodes", [1, 5, 64, 100, 101])
@pytest.mark.parametrize("where", ["first", "odd", "even", "last"])
def test_block_solve_singular_block_raises(nodes, where):
    # a zero row block: eliminated at the first level (odd), carried into
    # the reduced systems (even), or left to the bottom solve, which is the
    # whole system at 1 and 64 nodes with d = 1 (one node has only row 0);
    # a level with a zero 1x1 block hands its system to the sweep, which
    # raises at its zero pivot before any division, so no RuntimeWarning
    rng = np.random.default_rng(65)
    for d in (1, 2):
        bands = 0.1 * rng.standard_normal((3, nodes, d, d))
        bands[1] += 4.0 * np.eye(d)
        bands[0, 0] = bands[2, -1] = 0.0
        row = {"first": 0, "odd": 1, "even": nodes // 2 * 2 - 2, "last": nodes - 1}[where] % nodes
        bands[:, row] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SingularMatrixError):
                solver._block_tridiagonal_solve(bands, np.ones(nodes * d))


def cancelling_bands(nodes, d):
    """Identity diagonal blocks and -identity off-diagonal ones: a reduced
    system's end row gets the diagonal ``I - I = 0`` exactly."""
    bands = np.zeros((3, nodes, d, d))
    bands[1] = np.eye(d)
    bands[0, 1:] = bands[2, :-1] = -np.eye(d)
    return bands


@pytest.mark.parametrize("nodes", [128, 254, 255, 510, 511, 1023])
def test_scalar_reduction_hands_a_zero_pivot_to_the_sweep(nodes, monkeypatch):
    # d = 1: a reduced system's zero diagonal entry (at the second level at
    # 255 nodes, the third at 510) would be a level's divisor, so the
    # reduction hands that system to the pivoting sweep, which solves it
    # (condition numbers 424-1694) or, where nodes + 1 is a multiple of 3
    # and the matrix is singular, raises at its zero pivot
    bands = cancelling_bands(nodes, 1)
    b = np.random.default_rng(39).standard_normal(nodes)
    swept = []  # each system the sweep solves, with its solution
    sweep = solver._tridiagonal_sweep

    def spy(reduced, rhs):
        x = sweep(reduced, rhs)
        swept.append((reduced, x))
        return x

    monkeypatch.setattr(solver, "_tridiagonal_sweep", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if (nodes + 1) % 3 == 0:
            with pytest.raises(SingularMatrixError, match="singular matrix: zero pivot"):
                solver._block_tridiagonal_solve(bands, b)
            return
        x = solver._block_tridiagonal_solve(bands, b)
    dense = dense_from_bands(bands)
    backward = np.max(np.abs(dense @ x - b))
    scale = np.max(np.abs(dense).sum(axis=1)) * np.max(np.abs(x))
    assert backward <= 1e-14 * scale, backward / scale
    # the sweep took a system too large for the bottom, for its zero entry,
    # and its solution is the solve's, byte for byte, at the nodes it kept
    [(reduced, kept)] = swept
    assert reduced.shape[1] > solver._DENSE_UNKNOWNS and not reduced[1, 1::2].all()
    stride = 1
    while len(x[::stride]) > len(kept):
        stride *= 2
    assert x[::stride].tobytes() == kept.tobytes()


def test_block_reduction_still_breaks_down_on_cancelling_blocks():
    # d > 1 levels pivot only inside blocks: the same cancellation at
    # d = 2, 127 nodes (condition number 211) reaches the second level's
    # eliminated block and raises, though the system is not singular
    bands = cancelling_bands(127, 2)
    assert np.linalg.cond(dense_from_bands(bands)) < 250
    with pytest.raises(SingularMatrixError, match="singular diagonal block"):
        solver._block_tridiagonal_solve(bands, np.ones(254))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(1, 64), st.floats(0.0, 100.0), st.integers(0, 2**32 - 1))
@example(24, 44.09606404269513, 0)
def test_scalar_sweep_is_backward_stable_and_refuses_a_zero_pivot(nodes, omega, seed):
    # the d = 1 bottom, which is the whole system at up to 64 unknowns, on
    # diagonally dominant bands and on harmonic ones, which are indefinite
    # once omega passes pi; without its row interchanges the backward error
    # reached 2e-11 on the harmonic bands (24 nodes, omega 44.1)
    rng = np.random.default_rng(seed)
    dominant = rng.uniform(-1.0, 1.0, (3, nodes, 1, 1))
    dominant[1] = rng.choice([-1.0, 1.0], (nodes, 1, 1)) * rng.uniform(2.5, 4.0, (nodes, 1, 1))
    q = linear_initial_guess(fv.make_grid(0.0, 1.0, nodes + 1), [0.0], [1.0])
    harmonic = jacobian(vi_classical(), fv.harmonic_oscillator(omega), q)
    b = rng.standard_normal(nodes)
    middle = int(rng.integers(nodes))
    for bands in (dominant, harmonic):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = solver._block_tridiagonal_solve(bands, b)
            dense = dense_from_bands(bands)
            backward = np.max(np.abs(dense @ x - b))
            scale = np.max(np.abs(dense).sum(axis=1)) * np.max(np.abs(x))
            assert backward <= 1e-14 * scale, backward / scale
            # a zero column leaves no nonzero pivot for it
            for column in (0, middle, nodes - 1):
                zero = bands.copy()
                for band, row in ((2, column - 1), (1, column), (0, column + 1)):
                    if 0 <= row < nodes:
                        zero[band, row] = 0.0
                with pytest.raises(SingularMatrixError):
                    solver._block_tridiagonal_solve(zero, b)
            # a NaN entry spreads to every unknown, and nothing raises, also
            # where a NaN pivot meets a zero entry below it
            nan = bands.copy()
            nan[1, middle] = np.nan
            assert np.isnan(solver._block_tridiagonal_solve(nan, b)).all()
            nan[0, middle + 1 :] = 0.0
            assert np.isnan(solver._block_tridiagonal_solve(nan, b)).all()


def test_scalar_block_reduction_makes_no_batched_lapack_call(monkeypatch):
    # d = 1: each level is elementwise and the bottom is a scalar sweep, so
    # no Newton iteration calls LAPACK: one node, a 64-unknown bottom, and
    # 511 nodes reduced to 64
    dims = []  # the matrix dimension of every np.linalg.solve call
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: dims.append(np.ndim(a)) or solve(a, b))
    for n in (2, 65, 512):
        grid = fv.make_grid(0.0, 1.0, n)
        problem = BVPProblem(grid, fv.pendulum(1.0), vi_classical(), [0.0], [1.0])
        _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-9))
        assert diag.converged and diag.iterations >= 2, n
        assert dims == [], n
    # d = 2 keeps one batched LAPACK solve per level and a dense bottom
    grid = fv.make_grid(0.0, 1.0, 512)
    problem = BVPProblem(grid, fv.pendulum(1.0, dim=2), vi_classical(), [0.0, 0.5], [1.0, 0.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-9))
    assert diag.converged
    assert dims.count(2) == diag.iterations
    assert dims.count(3) == 4 * diag.iterations  # 511 -> 256 -> 128 -> 64 -> 32 nodes


def test_classical_solve_takes_no_dense_matrix():
    # a dense Jacobian at this size would take 34 GB
    start = time.monotonic()
    grid = fv.make_grid(0.0, 1.0, 65536)
    problem = BVPProblem(grid, fv.pendulum(1.0), vi_classical(), [0.0], [1.0])
    tracemalloc.start()
    try:
        _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diag.converged
    assert peak < 64 * 2**20
    assert time.monotonic() - start < 30.0


def test_fractional_solve_at_alpha_one_takes_no_dense_matrix():
    # alpha = 1 takes bands; a dense kernel or Jacobian here takes 32 MB
    grid = fv.make_grid(0.0, 1.0, 2048)
    kind = SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.MINUS, 1.0)
    problem = BVPProblem(grid, fv.pendulum(1.0), kind, [0.0], [1.0])
    tracemalloc.start()
    try:
        _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diag.converged
    assert peak < 4 * 2**20


def count_residual_calls(monkeypatch):
    # the solver's residual seam: one call of the residual core, which a
    # solve makes once, per residual evaluation
    calls = []
    make = solver._residual_core

    def counted_core(kind, grid):
        core = make(kind, grid)

        def counted(*args):
            calls.append(1)
            return core(*args)

        return counted

    monkeypatch.setattr(solver, "_residual_core", counted_core)
    return calls


def test_classical_newton_step_makes_no_jacobian_residual_call(monkeypatch):
    d = 2
    calls = count_residual_calls(monkeypatch)
    callbacks = []
    grid = fv.make_grid(0.0, 1.0, 256)
    lag = counted_lagrangian(fv.harmonic_oscillator(1.0, dim=d), callbacks)
    problem = BVPProblem(grid, lag, vi_classical(), [0.0, 1.0], [1.0, 0.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert diag.converged and diag.iterations >= 1
    assert diag.jacobian_builds == diag.iterations
    # one residual per iterate plus the line-search trials
    assert len(calls) == diag.residual_evals == 1 + diag.iterations + diag.backtracks
    per_jacobian = (len(callbacks) - 2 * len(calls)) / diag.jacobian_builds
    assert per_jacobian <= 4 * d + 2


def counted_lagrangian(lag, calls):
    # the same Lagrangian, its Lx and Lv calls appended to ``calls``
    def count(fn):
        def wrapped(x, v, t):
            calls.append(1)
            return fn(x, v, t)

        return wrapped

    return dataclasses.replace(lag, Lx=count(lag.Lx), Lv=count(lag.Lv))


FRACTIONAL_FAMILIES = (SchemeFamily.VARIATIONAL_FRACTIONAL, SchemeFamily.DIRECT_FRACTIONAL)


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("family", FRACTIONAL_FAMILIES, ids=lambda f: f.value)
def test_structured_jacobian_matches_finite_differences(family, sigma, problem):
    rng = np.random.default_rng(63)
    for d in (1, 2, 3):
        for n in (2, 3, 5, 16, 33):
            for alpha in (0.3, 0.8, 1.0):
                kind = SchemeKind(family, sigma, alpha)
                grid = fv.make_grid(-0.2, 1.1, n)
                qa, qb = rng.standard_normal((2, 1, d))
                calls = []
                lag = counted_lagrangian(PROBLEMS[problem](d), calls)
                fun = interior_residual(kind, lag, grid, qa, qb)
                x = rng.standard_normal((n - 1) * d)
                fd = column_fd_jacobian(fun, x, fun(x))
                calls.clear()
                q = fv.Trajectory(grid, np.vstack([qa, x.reshape(n - 1, d), qb]))
                structured = jacobian(kind, lag, q)
                assert len(calls) == 4 * d + 2
                if structured.ndim == 4:  # bands at alpha = 1
                    structured = dense_from_bands(structured)
                gap = np.max(np.abs(structured - fd))
                assert gap <= 1e-6 * np.max(np.abs(fd)), (d, n, alpha, gap)


def test_fractional_newton_step_uses_structured_jacobian(monkeypatch):
    # the benchmark's pinned solve: no residual call builds a Jacobian
    calls = count_residual_calls(monkeypatch)
    callbacks = []
    grid = fv.make_grid(0.0, 1.0, 256)
    kind = SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.MINUS, 0.5)
    lag = counted_lagrangian(fv.harmonic_oscillator(1.0), callbacks)
    problem = BVPProblem(grid, lag, kind, [0.0], [1.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert diag.iterations == 1
    assert diag.jacobian_builds == diag.iterations
    # one residual per iterate plus the line-search trials
    assert len(calls) == diag.residual_evals == 1 + diag.iterations + diag.backtracks
    per_jacobian = (len(callbacks) - 2 * len(calls)) / diag.jacobian_builds
    assert per_jacobian <= 4 * lag.dim + 2


def forgetting(fn):
    # ``fn``, emptying the GL builder's memory before every call
    def wrapped(x, v, t):
        fracops._kernel.cache_clear()
        return fn(x, v, t)

    return wrapped


@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("family", FRACTIONAL_FAMILIES, ids=lambda f: f.value)
def test_fractional_solve_builds_each_operator_once(family, sigma, monkeypatch):
    # every callback call empties the builder's memory, so an operator the
    # solve read from it after it started would be built again.  A kernel
    # or adjoint build reads its weights once, so the weight reads count
    # every build
    built = []
    weights = fracops._weights

    def recorded(alpha, m):
        built.append(m)
        return weights(alpha, m)

    monkeypatch.setattr(fracops, "_weights", recorded)
    lag = fv.pendulum(2.0)
    lag = dataclasses.replace(lag, Lx=forgetting(lag.Lx), Lv=forgetting(lag.Lv))
    grid = fv.make_grid(0.0, 1.0, 32)
    problem = BVPProblem(grid, lag, SchemeKind(family, sigma, 0.5), [0.0], [1.0])
    fracops._kernel.cache_clear()
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert diag.converged and diag.jacobian_builds >= 5
    # the velocity kernel, the direct embedding's outer one over n - 1, and
    # the Jacobian's adjoint
    direct = family is SchemeFamily.DIRECT_FRACTIONAL
    assert built == ([grid.n, grid.n - 1, grid.n] if direct else [grid.n, grid.n])


def record_kinetic_branch(monkeypatch):
    # the kinetic block each fractional Jacobian used: the node mean of Hvv
    # (the Gram branch), or None (the per-node product)
    taken = []
    uniform = schemes._uniform_kinetic

    def recorded(hvx, hvv):
        taken.append(uniform(hvx, hvv))
        return taken[-1]

    monkeypatch.setattr(schemes, "_uniform_kinetic", recorded)
    return taken


@pytest.mark.parametrize("family", FRACTIONAL_FAMILIES, ids=lambda f: f.value)
def test_mechanical_solve_makes_one_kernel_matrix_product(family, monkeypatch):
    # every GL kernel product, wherever its operator is bound; a residual's
    # operand has one column per component, the Gram matrix's one per node
    products = []
    for module in (fracops, lagrangians, schemes):
        def counted_operator(alpha, n, side, adjoint=False, make=module._operator):
            apply = make(alpha, n, side, adjoint)

            def counted(y):
                if y.shape[1] > 1:
                    products.append(y.shape)
                return apply(y)

            return counted

        monkeypatch.setattr(module, "_operator", counted_operator)
    taken = record_kinetic_branch(monkeypatch)
    grid = fv.make_grid(0.0, 1.0, 64)
    kind = SchemeKind(family, fv.PLUS, 0.5)
    problem = BVPProblem(grid, fv.pendulum(2.0), kind, [0.0], [2.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert diag.converged and diag.jacobian_builds >= 3
    assert len(taken) == diag.jacobian_builds and all(k is not None for k in taken)
    assert products == [(grid.n, grid.n - 1)]  # the Gram matrix, once per solve


def growing_mass(dim=1, rate=1e-8):
    # L = (1 + rate t) |v|^2 / 2: Hvx is zero, Hvv moves with the node
    def L(x, v, t):
        return 0.5 * (1.0 + rate * t) * np.sum(v * v, axis=-1)

    def Lx(x, v, t):
        return np.zeros_like(x)

    def Lv(x, v, t):
        return (1.0 + rate * t)[..., None] * v

    return fv.Lagrangian(L=L, Lx=Lx, Lv=Lv, dim=dim, name="growing mass")


@pytest.mark.parametrize("make_lagrangian", [coupled_lagrangian, growing_mass])
@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("family", FRACTIONAL_FAMILIES, ids=lambda f: f.value)
def test_non_uniform_kinetic_keeps_the_per_node_product(family, sigma, make_lagrangian, monkeypatch):
    # coupled: Hvx = sin(t) I; growing mass: Hvv spreads by 1e-8 over the
    # nodes, far above one quotient's noise
    taken = record_kinetic_branch(monkeypatch)
    rng = np.random.default_rng(67)
    for d in (1, 2):
        grid = fv.make_grid(0.0, 1.0, 24)
        q = fv.Trajectory(grid, rng.standard_normal((grid.n + 1, d)))
        jacobian(SchemeKind(family, sigma, 0.6), make_lagrangian(d), q)
    assert taken == [None, None]


@pytest.mark.parametrize("family", FRACTIONAL_FAMILIES, ids=lambda f: f.value)
def test_counters_count_calls_and_backtracks(family, monkeypatch):
    calls = count_residual_calls(monkeypatch)
    grid = fv.make_grid(0.0, 1.0, 16)
    kind = SchemeKind(family, fv.PLUS, 0.5 if family is SchemeFamily.DIRECT_FRACTIONAL else 0.3)
    problem = BVPProblem(grid, fv.pendulum(2.0), kind, [0.0], [2.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert diag.backtracks > 0
    assert diag.jacobian_builds == diag.iterations
    assert len(calls) == diag.residual_evals == 1 + diag.iterations + diag.backtracks


def test_classical_counters_count_calls_and_backtracks(monkeypatch):
    calls = count_residual_calls(monkeypatch)
    callbacks = []
    d = 2
    grid = fv.make_grid(0.0, 1.0, 16)
    lag = counted_lagrangian(fv.pendulum(3.0, dim=d), callbacks)
    problem = BVPProblem(grid, lag, vi_classical(fv.PLUS), [0.0, 0.0], [2.0, 1.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert diag.jacobian_builds == diag.iterations
    assert len(calls) == diag.residual_evals == 1 + diag.iterations + diag.backtracks
    per_jacobian = (len(callbacks) - 2 * len(calls)) / diag.jacobian_builds
    assert per_jacobian <= 4 * d + 2


def test_line_search_stops_at_the_rounding_floor():
    # the default 1e-12 target lies below the rounding floor of this
    # residual (which scales like 4/h^2): the third step's first trial
    # rounds to the iterate, and so would every shorter one
    grid = fv.make_grid(0.0, 1.0, 512)
    problem = BVPProblem(grid, fv.harmonic_oscillator(1.0), vi_classical(), [0.0], [1.0])
    message = "line search stalled at iteration 3 (residual 5.405e-11, target 1.000e-12)"
    with pytest.raises(NewtonConvergenceError) as err:
        solve_bvp_newton(problem)
    assert str(err.value) == message
    diag = err.value.diagnostics
    # 40 backtracks and 43 residual calls when the search ran to its limit
    assert diag.backtracks <= 2 and diag.residual_evals <= 5
    assert diag.records[-1] == (3, diag.records[-2][1], 0.0)


@pytest.mark.parametrize("kind", [
    SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.MINUS, 0.5),
    SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.PLUS),
], ids=lambda k: k.family.value)
def test_non_finite_residual_stops_before_any_jacobian(kind):
    callbacks = []
    lag = counted_lagrangian(nan_lx(fv.harmonic_oscillator(1.0)), callbacks)
    problem = BVPProblem(fv.make_grid(0.0, 1.0, 64), lag, kind, [0.0], [1.0])
    with pytest.raises(NewtonConvergenceError, match=r"non-finite residual \(nan\)") as err:
        solve_bvp_newton(problem)
    diag = err.value.diagnostics
    assert (diag.residual_evals, diag.jacobian_builds, diag.backtracks) == (1, 0, 0)
    assert len(callbacks) == 2
    assert isinstance(err.value.last, fv.Trajectory)


def test_march_non_finite_step_stops_with_summed_counters(monkeypatch):
    builds = count_fd_jacobians(monkeypatch)
    grid = fv.make_grid(0.0, 1.0, 16)
    lag = nan_lx(fv.pendulum(1.2), after=0.5)
    lx_calls = []

    def Lx(x, v, t):
        lx_calls.append(1)
        return lag.Lx(x, v, t)

    counted = dataclasses.replace(lag, Lx=Lx)
    with pytest.raises(NewtonConvergenceError, match=r"^march step k=9: non-finite residual") as err:
        march_direct_classical(counted, grid, [0.1], [0.15], config=NewtonConfig(tol=1e-11))
    diag = err.value.diagnostics
    assert len(diag.records) == 1 and math.isnan(diag.records[0][1])
    # steps k = 2 .. 8 converged, the first with a Jacobian of its own;
    # every step residual makes one Lx call
    assert diag.jacobian_builds == len(builds) >= 1
    assert diag.residual_evals == len(lx_calls)


@pytest.mark.parametrize("name,wrong", [
    ("Lx", lambda x, v, t: -np.sum(x, axis=-1)),
    ("Lv", lambda x, v, t: np.sum(v, axis=-1)),
])
def test_march_refuses_wrong_callback_shape(name, wrong):
    # the shape was broadcast into a wrong trajectory (d = 2) or read as the
    # one unknown's float (d = 1, the scalar layout); wrong only past t = 0.5,
    # an Lv passes node 1's call and meets the step residual's check
    for dim in (1, 2):
        lag = fv.harmonic_oscillator(dim=dim)
        right = getattr(lag, name)

        def late(x, v, t):
            return (wrong if t > 0.5 else right)(x, v, t)

        message = rf"Lagrangian callback {name} returned shape \(\), expected \({dim},\)"
        for callback in (wrong, late):
            bad = dataclasses.replace(lag, **{name: callback})
            with pytest.raises(fv.DomainError, match=message):
                march_direct_classical(bad, fv.make_grid(0.0, 1.0, 16), [1.0] * dim, [0.9] * dim)
