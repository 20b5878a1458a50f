import dataclasses
import math
import time

import numpy as np
import pytest

import fracvi as fv
from fracvi.schemes import SchemeFamily, SchemeKind, assemble_residual, fractional_jacobian
from fracvi import solver
from fracvi.lagrangians import FD_STEP
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
from oracles import coupled_lagrangian, harmonic_exact, probe_linear_system


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


def test_lu_singular_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(a, np.array([1.0, 2.0]))


def test_newton_config_validation():
    with pytest.raises(fv.DomainError):
        NewtonConfig(tol=0.0)
    with pytest.raises(fv.DomainError):
        NewtonConfig(max_iter=0)


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
    with pytest.raises(fv.DomainError):
        solve_bvp_newton(problem, init=bad)


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


def test_diagnostics_csv_layout():
    grid = fv.make_grid(0.0, 1.0, 8)
    problem = BVPProblem(grid, fv.harmonic_oscillator(1.0), vi_classical(), [0.0], [1.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    text = diag.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,residual_norm,step_norm"
    assert lines[1].startswith("0,")


def test_march_free_exact_linear():
    grid = fv.make_grid(0.0, 1.0, 8)
    traj = march_direct_classical(fv.free_particle(), grid, [0.0], [0.125])
    np.testing.assert_array_equal(traj.values.ravel(), np.arange(9) / 8)


def test_march_zero_fixed_point():
    grid = fv.make_grid(0.0, 1.0, 10)
    traj = march_direct_classical(fv.pendulum(1.0), grid, [0.0], [0.0])
    assert fv.inf_norm(traj) == 0.0


def test_march_satisfies_direct_residual():
    grid = fv.make_grid(0.0, 1.0, 16)
    lag = fv.pendulum(1.2)
    cfg = NewtonConfig(tol=1e-11)
    traj = march_direct_classical(lag, grid, [0.1], [0.15], config=cfg)
    res = fv.residual_direct_classical(lag, traj, fv.MINUS)
    assert fv.inf_norm(res) <= 1e-10


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


def test_march_first_order_convergence():
    omega = 1.0
    exact = harmonic_exact(omega, 0.0, 1.0, 1.0, math.cos(1.0) + 0.5 * math.sin(1.0))
    lag = fv.harmonic_oscillator(omega)
    cfg = NewtonConfig(tol=1e-9)
    errors = []
    for n in (16, 32, 64, 128):
        grid = fv.make_grid(0.0, 1.0, n)
        traj = march_direct_classical(
            lag, grid, [exact(grid.node(0))], [exact(grid.node(1))], config=cfg
        )
        ref = np.array([exact(t) for t in grid.nodes])[:, None]
        errors.append(float(np.max(np.abs(traj.values - ref))))
    for i in range(3):
        assert 0.7 <= math.log2(errors[i] / errors[i + 1]) <= 1.3


def test_fractional_jacobian_budget():
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


def column_by_column_jacobian(fun, x, r):
    # one residual call per unknown: the reference the grouped build must match
    jac = np.empty((x.size, x.size))
    for j in range(x.size):
        step = FD_STEP * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += step
        jac[:, j] = (fun(xp) - r) / step
    return jac


def interior_residual(kind, lag, grid, qa, qb):
    def fun(x):
        vals = np.vstack([qa, x.reshape(grid.n - 1, lag.dim), qb])
        return assemble_residual(kind, lag, fv.Trajectory(grid, vals)).values.ravel()

    return fun


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("family", CLASSICAL_FAMILIES, ids=lambda f: f.value)
def test_grouped_jacobian_is_bitwise_the_dense_one(family, sigma, problem):
    kind = SchemeKind(family, sigma)
    assert kind.halo == 1
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
            grouped = solver._fd_jacobian(counted, x, r, d, kind.halo)
            assert np.array_equal(grouped, column_by_column_jacobian(fun, x, r))
            assert len(calls) == min(3, n - 1) * d


def test_dense_jacobian_for_fractional_schemes():
    kind = SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.PLUS, 0.6)
    assert kind.halo is None
    lag = coupled_lagrangian(2)
    grid = fv.make_grid(0.0, 1.0, 9)
    rng = np.random.default_rng(62)
    fun = interior_residual(kind, lag, grid, *rng.standard_normal((2, 1, 2)))
    x = rng.standard_normal(16)
    r = fun(x)
    dense = solver._fd_jacobian(fun, x, r, 2, kind.halo)
    assert np.array_equal(dense, column_by_column_jacobian(fun, x, r))


def count_residual_calls(monkeypatch):
    calls = []
    assemble = solver.assemble_residual

    def counted(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(solver, "assemble_residual", counted)
    return calls


def test_classical_newton_step_takes_three_d_residual_calls(monkeypatch):
    d = 2
    calls = count_residual_calls(monkeypatch)
    grid = fv.make_grid(0.0, 1.0, 256)
    problem = BVPProblem(
        grid, fv.harmonic_oscillator(1.0, dim=d), vi_classical(), [0.0, 1.0], [1.0, 0.0]
    )
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert diag.converged and diag.iterations >= 1
    # one initial residual; per iteration 3*d Jacobian calls and one trial
    assert len(calls) == 1 + diag.iterations * (3 * d + 1)


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
                fd = solver._fd_jacobian(fun, x, fun(x), d, kind.halo)
                calls.clear()
                q = fv.Trajectory(grid, np.vstack([qa, x.reshape(n - 1, d), qb]))
                structured = fractional_jacobian(kind, lag, q)
                assert len(calls) == 4 * d + 2
                gap = np.max(np.abs(structured - fd))
                assert gap <= 1e-6 * np.max(np.abs(fd)), (d, n, alpha, gap)


def test_structured_jacobian_refuses_classical_schemes():
    grid = fv.make_grid(0.0, 1.0, 4)
    q = fv.Trajectory(grid, np.zeros((5, 1)))
    with pytest.raises(fv.DomainError, match="vi-classical has no structured Jacobian"):
        fractional_jacobian(vi_classical(), fv.free_particle(), q)


def test_fractional_newton_step_uses_structured_jacobian(monkeypatch):
    # the benchmark's pinned solve: no residual call builds a Jacobian
    calls = count_residual_calls(monkeypatch)
    callbacks = []
    grid = fv.make_grid(0.0, 1.0, 256)
    kind = SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.MINUS, 0.5)
    lag = counted_lagrangian(fv.harmonic_oscillator(1.0), callbacks)
    problem = BVPProblem(grid, lag, kind, [0.0], [1.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert diag.iterations == 2
    assert diag.jacobian_builds == diag.iterations
    # one residual per iterate plus the line-search trials
    assert len(calls) == diag.residual_evals == 1 + diag.iterations + diag.backtracks
    per_jacobian = (len(callbacks) - 2 * len(calls)) / diag.jacobian_builds
    assert per_jacobian <= 4 * lag.dim + 2


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


def test_classical_counters_include_jacobian_columns(monkeypatch):
    calls = count_residual_calls(monkeypatch)
    d = 2
    grid = fv.make_grid(0.0, 1.0, 16)
    problem = BVPProblem(grid, fv.pendulum(3.0, dim=d), vi_classical(fv.PLUS), [0.0, 0.0], [2.0, 1.0])
    _, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
    assert diag.jacobian_builds == diag.iterations
    trials = diag.iterations + diag.backtracks
    assert len(calls) == diag.residual_evals == 1 + diag.iterations * 3 * d + trials


def nan_lx(lag, after=-math.inf):
    # Lx turns NaN at times past ``after``
    def Lx(x, v, t):
        return np.where(np.asarray(t)[..., None] > after, math.nan, lag.Lx(x, v, t))

    return dataclasses.replace(lag, Lx=Lx)


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


def test_march_non_finite_step_stops_with_summed_counters():
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
    # steps k = 2 .. 8 converged, each with at least one Jacobian; every
    # step residual makes one Lx call
    assert diag.jacobian_builds >= 7
    assert diag.residual_evals == len(lx_calls)
