"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every tolerance is pinned here, not deferred to fixtures.
"""

import math

import numpy as np

import fracvi as fv
from fracvi.schemes import SchemeFamily, SchemeKind, assemble_residual
from fracvi.solver import BVPProblem, NewtonConfig, march_direct_classical, solve_bvp_newton
from oracles import (
    fd_functional_gradient,
    harmonic_exact,
    probe_linear_system,
    random_trajectory,
)


def report(index: int, label: str, ok: bool) -> None:
    print(f"[criterion {index:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} failed: {label}"


def test_criterion_01_classical_ibp():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 4))
        grid = fv.make_grid(0.0, 1.0, n)
        f = fv.Trajectory(grid, rng.standard_normal((n + 1, d)))
        g = fv.Trajectory(grid, rng.standard_normal((n + 1, d)))
        lhs, rhs = fv.check_discrete_ibp(f, g)
        ok = ok and abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
    report(1, "discrete integration by parts, 100 random pairs", ok)


def test_criterion_02_fractional_ibp():
    rng = np.random.default_rng(102)
    ok = True
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for _ in range(100):
            n = int(rng.integers(4, 129))
            d = int(rng.integers(1, 3))
            grid = fv.make_grid(0.0, 1.0, n)
            f_vals = rng.standard_normal((n + 1, d))
            f_vals[0] = 0.0
            f_vals[-1] = 0.0
            f = fv.Trajectory(grid, f_vals)
            g = fv.Trajectory(grid, rng.standard_normal((n + 1, d)))
            lhs, rhs = fv.check_discrete_frac_ibp(f, g, alpha)
            ok = ok and abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    report(2, "discrete fractional integration by parts, 5 orders x 100 pairs", ok)


def test_criterion_03_fractional_coherence():
    rng = np.random.default_rng(103)
    ok = True
    for lag in (fv.harmonic_oscillator(1.0), fv.pendulum(1.0)):
        for sigma in (fv.PLUS, fv.MINUS):
            for alpha in (0.3, 0.5, 0.9):
                q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 32))
                direct = fv.residual_direct_fractional(lag, q, sigma, alpha)
                vari = fv.residual_vi_fractional(lag, q, sigma, alpha)
                gap = float(np.max(np.abs(direct.values - vari.values)))
                scale = float(np.max(np.abs(direct.values)))
                ok = ok and gap <= 1e-10 * (1.0 + scale)
    report(3, "fractional coherence, direct vs variational", ok)


def test_criterion_04_classical_non_coherence_witness():
    grid = fv.make_grid(0.0, 4.0, 4)
    q = fv.Trajectory(grid, np.arange(5.0) ** 3)
    lag = fv.free_particle()
    direct = fv.residual_direct_classical(lag, q, fv.MINUS)
    vari = fv.residual_vi_classical(lag, q, fv.MINUS)
    shared = [2, 3]
    ok = all(
        abs(float(direct.value_at(k)[0] - vari.value_at(k)[0]) - 6.0) <= 1e-12
        for k in shared
    )
    report(4, "classical non-coherence witness, gap exactly 6", ok)


def test_criterion_05_asymmetric_coherence():
    rng = np.random.default_rng(105)
    ok = True
    for trial in range(100):
        sigma = fv.PLUS if trial % 2 == 0 else fv.MINUS
        lag = fv.harmonic_oscillator(1.3) if trial % 3 else fv.pendulum(0.8)
        q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 16))
        asym = fv.residual_asymmetric_direct(lag, q, sigma)
        vari = fv.residual_vi_classical(lag, q, sigma)
        gap = float(np.max(np.abs(asym.values - vari.values)))
        scale = 1.0 + float(np.max(np.abs(vari.values)))
        ok = ok and gap <= 1e-12 * scale
    report(5, "asymmetric coherence, 100 random trajectories", ok)


def test_criterion_06_vi_gradient_equivalence():
    rng = np.random.default_rng(106)
    ok = True
    alphas = (None, 0.3, 0.5, 0.9)
    for case in range(50):
        alpha = alphas[case % 4]
        sigma = fv.PLUS if case % 2 == 0 else fv.MINUS
        lag = fv.pendulum(1.1) if case % 3 else fv.harmonic_oscillator(0.9)
        q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 10))
        if alpha is None:
            res = fv.residual_vi_classical(lag, q, sigma)
        else:
            res = fv.residual_vi_fractional(lag, q, sigma, alpha)
        fd = fd_functional_gradient(lag, q, sigma, alpha)
        scale = 1.0 + float(np.max(np.abs(res.values)))
        ok = ok and float(np.max(np.abs(res.values - fd))) <= 1e-6 * scale
    report(6, "variational residuals equal finite-difference gradients", ok)


def test_criterion_07_stencil_reproduction():
    rng = np.random.default_rng(107)
    omega = 1.5
    lag = fv.harmonic_oscillator(omega)
    grid = fv.make_grid(0.0, 1.0, 8)
    q = random_trajectory(rng, grid)
    v = q.values.ravel()
    h = grid.h
    direct = fv.residual_direct_classical(lag, q, fv.MINUS)
    expected_direct = np.array(
        [
            -((v[k] - 2 * v[k - 1] + v[k - 2]) / h**2 + omega**2 * v[k])
            for k in range(2, 9)
        ]
    )
    vari = fv.residual_vi_classical(lag, q, fv.MINUS)
    expected_vi = np.array(
        [
            -((v[k + 1] - 2 * v[k] + v[k - 1]) / h**2 + omega**2 * v[k])
            for k in range(1, 8)
        ]
    )
    scale = max(np.max(np.abs(expected_direct)), np.max(np.abs(expected_vi)))
    ok = (
        np.max(np.abs(direct.values.ravel() - expected_direct)) <= 1e-12 * scale
        and np.max(np.abs(vari.values.ravel() - expected_vi)) <= 1e-12 * scale
    )
    report(7, "mechanical stencils reproduced (one-sided and central)", ok)


def test_criterion_08_order_study():
    omega = 1.0
    qa = 1.0
    qb = math.cos(1.0) + 0.5 * math.sin(1.0)
    exact = harmonic_exact(omega, 0.0, 1.0, qa, qb)
    lag = fv.harmonic_oscillator(omega)
    cfg = NewtonConfig(tol=1e-9)
    kind = SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, fv.MINUS)
    vi_err, march_err = [], []
    for n in (16, 32, 64, 128):
        grid = fv.make_grid(0.0, 1.0, n)
        traj, _ = solve_bvp_newton(BVPProblem(grid, lag, kind, [qa], [qb]), config=cfg)
        ref = np.array([exact(t) for t in grid.nodes])[:, None]
        vi_err.append(float(np.max(np.abs(traj.values - ref))))
        marched, _ = march_direct_classical(
            lag, grid, [exact(grid.node(0))], [exact(grid.node(1))], config=cfg
        )
        march_err.append(float(np.max(np.abs(marched.values - ref))))
    vi_orders = [math.log2(vi_err[i] / vi_err[i + 1]) for i in range(3)]
    march_orders = [math.log2(march_err[i] / march_err[i + 1]) for i in range(3)]
    ok = all(1.8 <= o <= 2.2 for o in vi_orders) and all(
        0.7 <= o <= 1.3 for o in march_orders
    )
    report(8, "harmonic order study, variational ~2 and direct marching ~1", ok)


def test_criterion_09_gl_rl_consistency():
    ok = True
    for alpha in (0.3, 0.5, 0.9):
        for beta in (1.0, 2.0):
            exact = fv.rl_monomial_derivative(beta, alpha, 1.0)
            errors = []
            for n in (64, 128, 256, 512):
                grid = fv.make_grid(0.0, 1.0, n)
                traj = fv.sample(lambda t: t**beta, grid)
                approx = float(fv.delta_alpha_minus(traj, alpha).value_at(n)[0])
                errors.append(abs(approx - exact))
            orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
            ok = ok and all(0.7 <= o <= 1.3 for o in orders)
    report(9, "discrete fractional derivative converges to the closed form", ok)


def test_criterion_10_alpha_one_reduction():
    rng = np.random.default_rng(110)
    ok = True

    def close_ulp(a, b):
        tol = 8.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))
        return bool(np.all(np.abs(a - b) <= tol))

    for _ in range(20):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 3))
        grid = fv.make_grid(0.0, 1.3, n)
        q = random_trajectory(rng, grid, dim=d)
        ok = ok and close_ulp(
            fv.delta_alpha_minus(q, 1.0).values, fv.delta_minus(q).values
        )
        ok = ok and close_ulp(
            fv.delta_alpha_plus(q, 1.0).values, fv.delta_plus(q).values
        )
        lag = fv.pendulum(1.2, dim=d)
        for sigma in (fv.PLUS, fv.MINUS):
            fa = fv.discrete_functional(lag, q, sigma, 1.0)
            fc = fv.discrete_functional(lag, q, sigma)
            ok = ok and abs(fa - fc) <= 8.0 * np.spacing(max(abs(fa), abs(fc)))
            ok = ok and close_ulp(
                fv.residual_direct_fractional(lag, q, sigma, 1.0).values,
                fv.residual_vi_classical(lag, q, sigma).values,
            )
            ok = ok and close_ulp(
                fv.residual_vi_fractional(lag, q, sigma, 1.0).values,
                fv.residual_vi_classical(lag, q, sigma).values,
            )
    report(10, "alpha=1 operators and schemes reduce to classical (8 ulp)", ok)


def test_criterion_11_fractional_bvp_oracle():
    grid = fv.make_grid(0.0, 1.0, 8)
    lag = fv.harmonic_oscillator(1.0)
    kind = SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.MINUS, 0.5)
    problem = BVPProblem(grid, lag, kind, [0.0], [1.0])
    traj, diag = solve_bvp_newton(problem)

    def residual(x):
        vals = np.vstack([[0.0], x[:, None], [1.0]])
        return assemble_residual(kind, lag, fv.Trajectory(grid, vals)).values.ravel()

    a_mat, c_vec = probe_linear_system(residual, 7)
    direct = np.linalg.solve(a_mat, -c_vec)
    gap = float(np.max(np.abs(traj.values[1:-1].ravel() - direct)))
    ok = diag.converged and gap <= 1e-10
    report(11, "fractional Newton solution matches dense linear solve", ok)
