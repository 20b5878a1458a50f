import math
from collections import OrderedDict

import numpy as np
import pytest

import fracvi as fv
from fracvi import fracops
from fracvi.fracops import _adjoint, _kernel
from fracvi.solver import BVPProblem, solve_bvp_newton
from oracles import gl_sum


def test_weights_alpha_one_truncate():
    np.testing.assert_array_equal(fv.gl_coefficients(1.0, 3), [1.0, -1.0, 0.0, 0.0])


def test_weights_half_hand_values():
    np.testing.assert_array_equal(
        fv.gl_coefficients(0.5, 4), [1.0, -0.5, -0.125, -0.0625, -0.0390625]
    )


def test_weights_alpha_03():
    np.testing.assert_allclose(
        fv.gl_coefficients(0.3, 2), [1.0, -0.3, -0.105], rtol=1e-15
    )


def test_weights_reject_bad_input():
    with pytest.raises(fv.DomainError):
        fv.gl_coefficients(0.0, 4)
    with pytest.raises(fv.DomainError):
        fv.gl_coefficients(-0.5, 4)
    with pytest.raises(fv.DomainError):
        fv.gl_coefficients(0.5, -1)
    with pytest.raises(fv.DomainError, match="weight count must be an integer"):
        fv.gl_coefficients(0.5, 2.9)  # returned w_0 .. w_2
    with pytest.raises(fv.DomainError, match="weight count must be an integer, got True"):
        fv.gl_coefficients(0.5, True)  # returned w_0, w_1


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_non_finite_order_rejected(alpha):
    q = _traj_0123()
    with pytest.raises(fv.DomainError):
        fv.gl_coefficients(alpha, 4)
    with pytest.raises(fv.DomainError):
        fv.delta_alpha_minus(q, alpha)
    with pytest.raises(fv.DomainError):
        fv.delta_alpha_plus(q, alpha)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_weight_structure_large_n(alpha):
    w = fv.gl_coefficients(alpha, 1000)
    assert not w.flags.writeable
    assert w[0] == 1.0
    assert math.isclose(w[1], -alpha, rel_tol=1e-15)
    assert np.all(w[1:] < 0.0)
    # recurrence w_r = w_{r-1} (r - 1 - alpha)/r to a few ulp
    r = np.arange(1, 1001, dtype=float)
    rebuilt = w[:-1] * (r - 1.0 - alpha) / r
    tol = 4.0 * np.spacing(np.abs(w[1:]))
    assert np.all(np.abs(rebuilt - w[1:]) <= tol)
    sums = np.cumsum(w)
    assert np.all(sums > 0.0)
    assert np.all(np.diff(sums) < 0.0)


@pytest.mark.parametrize("side", [fv.MINUS, fv.PLUS])
@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_kernel_entries_follow_the_definition(alpha, side):
    # MINUS: rows k = 1..n hold w_{k-j}; PLUS: rows k = 0..n-1 hold w_{j-k};
    # n = 0 is the empty kernel of one column
    for n in (0, 1, 2, 6, 65):
        w = fv.gl_coefficients(alpha, n)
        kernel = _kernel(alpha, n, side)
        assert kernel.shape == (n, n + 1), n
        assert kernel.flags.c_contiguous and not kernel.flags.writeable
        for row in range(n):
            k = row + 1 if side == fv.MINUS else row
            for j in range(n + 1):
                r = k - j if side == fv.MINUS else j - k
                assert kernel[row, j] == (w[r] if r >= 0 else 0.0), (n, row, j)


def _fresh_kernel(alpha, n, side):
    # the kernel by its definition, entry by entry
    w = fv.gl_coefficients(alpha, n)
    rows = range(1, n + 1) if side == fv.MINUS else range(n)
    offset = lambda k, j: k - j if side == fv.MINUS else j - k
    return np.array([[w[offset(k, j)] if offset(k, j) >= 0 else 0.0 for j in range(n + 1)] for k in rows])


def test_kernel_cache_is_bounded_by_bytes(monkeypatch):
    nbytes = lambda n: 8 * n * (n + 1)
    bound = nbytes(40) + nbytes(30)
    monkeypatch.setattr(fracops, "_cache", OrderedDict())
    monkeypatch.setattr(fracops, "_CACHE_BYTES", bound)
    calls = [  # (alpha, n, side), then the keys held afterwards, oldest first
        ((0.5, 30, fv.MINUS), [30]),
        ((0.5, 20, fv.MINUS), [30, 20]),
        ((0.5, 30, fv.MINUS), [20, 30]),  # a hit becomes the most recent
        ((0.5, 40, fv.MINUS), [30, 40]),  # the least recent goes first
        ((0.3, 10, fv.PLUS), [40, 10]),
        ((0.3, 60, fv.PLUS), [40, 10]),  # larger than the bound: not kept
        ((0.3, 10, fv.PLUS), [40, 10]),
    ]
    for key, held in calls:
        kernel = _kernel(*key)
        assert not kernel.flags.writeable
        assert np.array_equal(kernel, _fresh_kernel(*key))
        assert [n for _, n, _ in fracops._cache] == held
        assert sum(k.nbytes for k in fracops._cache.values()) <= bound
    assert _kernel(0.3, 10, fv.PLUS) is fracops._cache[(0.3, 10, fv.PLUS)]


def test_adjoints_are_cached_within_the_same_bound(monkeypatch):
    # an adjoint of size n holds 8 n (n - 1) bytes and caches its kernel,
    # 8 n (n + 1) bytes, first
    nbytes = lambda n: 8 * n * (n + 1)
    bound = nbytes(40) + nbytes(30)
    monkeypatch.setattr(fracops, "_cache", OrderedDict())
    monkeypatch.setattr(fracops, "_CACHE_BYTES", bound)
    K, A = "kernel", "adjoint"
    calls = [  # (what, n), then the entries held afterwards, oldest first
        ((A, 30), [(K, 30), (A, 30)]),
        ((K, 20), [(K, 30), (A, 30), (K, 20)]),
        ((A, 30), [(K, 30), (K, 20), (A, 30)]),  # a hit becomes the most recent
        ((A, 40), [(A, 40)]),  # its kernel, then itself, push the rest out
        ((K, 40), [(K, 40)]),
        ((A, 60), [(K, 40)]),  # larger than the bound, as its kernel: not kept
    ]
    for (what, n), held in calls:
        fresh = _fresh_kernel(0.5, n, fv.MINUS)
        if what == A:
            array = _adjoint(0.5, n, fv.MINUS)
            assert array.flags.c_contiguous
            assert np.array_equal(array, fresh[:, 1:n].T)
        else:
            array = _kernel(0.5, n, fv.MINUS)
            assert np.array_equal(array, fresh)
        assert not array.flags.writeable
        assert [(A if len(key) == 4 else K, key[1]) for key in fracops._cache] == held
        assert sum(a.nbytes for a in fracops._cache.values()) <= bound
    assert _adjoint(0.5, 8, fv.PLUS) is fracops._cache[(0.5, 8, fv.PLUS, "adjoint")]


@pytest.mark.parametrize("side", [fv.MINUS, fv.PLUS])
def test_adjoint_is_the_opposite_side_kernel(side):
    # the GL claim, entry for entry: the variational gradient's outer
    # operator is the direct embedding's, so both families' Gram matrices
    # A K[:, 1:n] are one matrix
    for n in (2, 3, 17, 64):
        for alpha in (0.05, 0.37, 1.0):
            assert np.array_equal(_adjoint(alpha, n, side), _kernel(alpha, n - 1, -side))


@pytest.mark.parametrize("side", [fv.MINUS, fv.PLUS])
def test_alpha_one_is_the_two_point_difference(side, monkeypatch):
    # alpha = 1 builds no kernel: the products are the two-point
    # differences, equal to the dense ones for finite values
    rng = np.random.default_rng(64)
    for d in (1, 2, 3):
        for n in (2, 3, 17, 64):
            y = rng.uniform(-2.0, 2.0, (n + 1, d))
            monkeypatch.setattr(fracops, "_cache", OrderedDict())
            applied = fracops.gl_apply(1.0, side, y)
            adjoint = fracops.gl_adjoint_apply(1.0, side, y[1:])
            assert not fracops._cache
            assert np.array_equal(applied, _kernel(1.0, n, side) @ y)
            assert np.array_equal(adjoint, _adjoint(1.0, n, side) @ y[1:])


def test_classical_and_alpha_one_solves_leave_no_cache_entry(monkeypatch):
    monkeypatch.setattr(fracops, "_cache", OrderedDict())
    grid = fv.make_grid(0.0, 1.0, 64)
    lag = fv.pendulum(1.0)
    for family in fv.SchemeFamily:
        alpha = 1.0 if family.value.endswith("fractional") else None
        kind = fv.SchemeKind(family, fv.MINUS, alpha)
        solve_bvp_newton(BVPProblem(grid, lag, kind, [0.0], [1.0]))
    q = fv.sample(lambda t: t * t, grid)
    fv.discrete_functional(lag, q, fv.PLUS)
    fv.functional_gradient(lag, q, fv.PLUS)
    assert not fracops._cache


def test_overflowing_weights_refused():
    # C(alpha, r) of such an order overflows within a few terms
    q = fv.Trajectory(fv.make_grid(0.0, 64.0, 64), np.zeros(65))  # h = 1: a finite scale
    calls = (
        lambda: fv.gl_coefficients(1e300, 64),
        lambda: fv.delta_alpha_minus(q, 1e300),
        lambda: fv.delta_alpha_plus(q, 1e300),
    )
    for call in calls:
        with pytest.raises(fv.DomainError) as info:
            call()
        assert str(info.value) == "GL weights overflow a float at alpha = 1e+300, n = 64"


def _traj_0123():
    return fv.Trajectory(fv.make_grid(0.0, 3.0, 3), [0.0, 1.0, 2.0, 3.0])


def test_delta_alpha_minus_hand_case():
    out = fv.delta_alpha_minus(_traj_0123(), 0.5)
    assert out.side == fv.MINUS
    np.testing.assert_array_equal(out.values.ravel(), [1.0, 1.5, 1.875])


def test_delta_alpha_minus_alpha_one_is_classical():
    q = fv.Trajectory(fv.make_grid(0.0, 3.0, 3), [0.0, 1.0, 4.0, 9.0])
    np.testing.assert_array_equal(
        fv.delta_alpha_minus(q, 1.0).values, gl_sum(q, 1.0, fv.MINUS)
    )


def test_delta_alpha_plus_alpha_one_is_classical():
    q = fv.Trajectory(fv.make_grid(0.0, 3.0, 3), [0.0, 1.0, 4.0, 9.0])
    np.testing.assert_array_equal(
        fv.delta_alpha_plus(q, 1.0).values, gl_sum(q, 1.0, fv.PLUS)
    )


def test_delta_alpha_of_constant_gives_partial_sums():
    # memory of the lower limit: the fractional derivative of a constant
    # with finite inferior limit does not vanish
    q = fv.sample(lambda t: 1.0, fv.make_grid(0.0, 4.0, 4))
    sums = np.cumsum(fv.gl_coefficients(0.5, 4))
    out = fv.delta_alpha_minus(q, 0.5)
    np.testing.assert_allclose(out.values.ravel(), sums[1:], rtol=1e-15)
    assert out.values.ravel()[0] == 0.5
    assert out.values.ravel()[1] == 0.375
    out_plus = fv.delta_alpha_plus(q, 0.5)
    np.testing.assert_allclose(out_plus.values.ravel(), sums[1:][::-1], rtol=1e-15)


def test_delta_alpha_zero_trajectory():
    q = fv.sample(lambda t: 0.0, fv.make_grid(0.0, 1.0, 6))
    assert fv.inf_norm(fv.delta_alpha_plus(q, 0.5)) == 0.0
    assert fv.inf_norm(fv.delta_alpha_minus(q, 0.5)) == 0.0


def test_delta_alpha_rejects_bad_order():
    q = _traj_0123()
    with pytest.raises(fv.DomainError):
        fv.delta_alpha_minus(q, 0.0)
    with pytest.raises(fv.DomainError):
        fv.delta_alpha_plus(q, -1.0)


@pytest.mark.parametrize("b,n,alpha,h", [
    (1e-300, 64, 2.0, "1.5625e-302"),  # h^alpha underflows to 0
    (1.0, 2, 1100.0, "0.5"),  # the same, by the order
    (1e-100, 64, 3.05, "1.5625e-102"),  # h^alpha is subnormal: 1/h^alpha overflows
    (1e300, 2, 2.0, "5e+299"),  # h^alpha overflows
])
def test_gl_scale_outside_the_float_range_refused(b, n, alpha, h):
    q = fv.Trajectory(fv.make_grid(0.0, b, n), np.zeros(n + 1))
    message = f"GL scale h^-alpha leaves the float range at h = {h}, alpha = {alpha!r}"
    for operator in (fv.delta_alpha_minus, fv.delta_alpha_plus):
        with pytest.raises(fv.DomainError) as info:
            operator(q, alpha)
        assert str(info.value) == message


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_mirror_symmetry(alpha):
    rng = np.random.default_rng(23)
    grid = fv.make_grid(0.0, 2.0, 31)
    vals = rng.standard_normal((32, 2))
    forward = fv.delta_alpha_minus(fv.Trajectory(grid, vals), alpha).values
    reversed_plus = fv.delta_alpha_plus(fv.Trajectory(grid, vals[::-1]), alpha).values
    # summation order is reversed between the two kernels
    scale = 1.0 + float(np.max(np.abs(forward)))
    assert np.max(np.abs(reversed_plus - forward[::-1])) <= 1e-13 * scale


def test_frac_ibp_zero_input():
    grid = fv.make_grid(0.0, 1.0, 8)
    zero = fv.sample(lambda t: 0.0, grid)
    g = fv.sample(lambda t: t * t, grid)
    lhs, rhs = fv.check_discrete_frac_ibp(zero, g, 0.5)
    assert lhs == 0.0 and rhs == 0.0


def test_frac_ibp_hand_case():
    grid = fv.make_grid(0.0, 2.0, 2)
    f = fv.Trajectory(grid, [0.0, 1.0, 0.0])
    g = fv.Trajectory(grid, [2.0, 5.0, 7.0])
    lhs, rhs = fv.check_discrete_frac_ibp(f, g, 0.5)
    assert math.isclose(lhs, 1.5, rel_tol=1e-15)
    assert math.isclose(rhs, 1.5, rel_tol=1e-15)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_frac_ibp_random_identity(alpha):
    rng = np.random.default_rng(31)
    grid = fv.make_grid(0.0, 1.0, 64)
    for _ in range(30):
        f_vals = rng.standard_normal((65, 2))
        f_vals[0] = 0.0
        f_vals[-1] = 0.0
        g = fv.Trajectory(grid, rng.standard_normal((65, 2)))
        lhs, rhs = fv.check_discrete_frac_ibp(fv.Trajectory(grid, f_vals), g, alpha)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_frac_ibp_accepts_zero_endpoint_g():
    rng = np.random.default_rng(37)
    grid = fv.make_grid(0.0, 1.0, 16)
    f = fv.Trajectory(grid, rng.standard_normal((17, 1)))
    g_vals = rng.standard_normal((17, 1))
    g_vals[0] = 0.0
    g_vals[-1] = 0.0
    lhs, rhs = fv.check_discrete_frac_ibp(f, fv.Trajectory(grid, g_vals), 0.4)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("n,b,alpha", [(64, 1e-306, 0.999), (64, 1e-306, 1.0), (16, 1e-307, 0.999)])
def test_frac_ibp_refuses_sums_outside_the_float_range(n, b, alpha):
    # h^-alpha is finite, but a partial sum or single terms overflow; the
    # refusal names h and alpha
    rng = np.random.default_rng(41)
    grid = fv.make_grid(0.0, b, n)
    f_vals = rng.standard_normal((n + 1, 2))
    f_vals[[0, -1]] = 0.0
    g = fv.Trajectory(grid, rng.standard_normal((n + 1, 2)))
    with pytest.raises(fv.DomainError, match=f"at h = {grid.h!r}, alpha = {alpha!r}$"):
        fv.check_discrete_frac_ibp(fv.Trajectory(grid, f_vals), g, alpha)


def test_frac_ibp_rejects_hypothesis_violation():
    grid = fv.make_grid(0.0, 1.0, 4)
    f = fv.sample(lambda t: t + 1.0, grid)
    g = fv.sample(lambda t: t + 2.0, grid)
    with pytest.raises(fv.DomainError):
        fv.check_discrete_frac_ibp(f, g, 0.5)


def test_rl_monomial_hand_values():
    assert math.isclose(fv.rl_monomial_derivative(1.0, 1.0, 1.0), 1.0, rel_tol=1e-13)
    assert math.isclose(
        fv.rl_monomial_derivative(1.0, 0.5, 1.0), 1.1283791670955126, rel_tol=1e-12
    )
    assert math.isclose(
        fv.rl_monomial_derivative(0.0, 0.5, 1.0), 0.5641895835477563, rel_tol=1e-12
    )


def test_rl_monomial_pole_reduction():
    # derivative of the constant at alpha = 1: reciprocal Gamma vanishes
    assert fv.rl_monomial_derivative(0.0, 1.0, 2.0) == 0.0


def test_rl_monomial_rejects_bad_input():
    with pytest.raises(fv.DomainError):
        fv.rl_monomial_derivative(-1.5, 0.5, 1.0)
    with pytest.raises(fv.DomainError):
        fv.rl_monomial_derivative(1.0, 1.5, 1.0)
    with pytest.raises(fv.DomainError):
        fv.rl_monomial_derivative(1.0, 0.5, 0.0)
    with pytest.raises(fv.DomainError, match="beta \\+ 1 - alpha = .* < 0"):
        fv.rl_monomial_derivative(-0.9, 0.5, 1.0)  # a tail beta + 1 - alpha of -0.4


@pytest.mark.parametrize("apply, side, message", [
    (fracops.frac_seq_minus, fv.MINUS, "left GL application needs a forward-window sequence"),
    (fracops.frac_seq_plus, fv.PLUS, "right GL application needs a backward-window sequence"),
])
def test_windowed_gl_refuses_a_window_on_the_wrong_side(apply, side, message):
    q = fv.Trajectory(fv.make_grid(0.0, 1.0, 8), np.ones((9, 1)))
    with pytest.raises(fv.DomainError, match=message):
        apply(fv.restrict(q, side), 0.5)


@pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (0.5, 1.0), (0.5, 2.0), (0.9, 2.0)])
def test_gl_converges_to_rl_on_monomials(alpha, beta):
    errors = []
    ns = [64, 128, 256, 512]
    exact = fv.rl_monomial_derivative(beta, alpha, 1.0)
    for n in ns:
        grid = fv.make_grid(0.0, 1.0, n)
        traj = fv.sample(lambda t: t**beta, grid)
        approx = float(fv.delta_alpha_minus(traj, alpha).value_at(n)[0])
        errors.append(abs(approx - exact))
    for i in range(len(ns) - 1):
        order = math.log2(errors[i] / errors[i + 1])
        assert 0.7 <= order <= 1.3


@pytest.mark.parametrize("alpha", [0.0, 1.5, math.nan])
@pytest.mark.parametrize("caller", [
    lambda lag, q, alpha: fv.discrete_functional(lag, q, fv.MINUS, alpha),
    lambda lag, q, alpha: fv.functional_gradient(lag, q, fv.MINUS, alpha),
    lambda lag, q, alpha: fv.residual_direct_fractional(lag, q, fv.MINUS, alpha),
    lambda lag, q, alpha: fv.rl_monomial_derivative(1.0, alpha, 1.0),
    lambda lag, q, alpha: fv.SchemeKind(fv.SchemeFamily.DIRECT_FRACTIONAL, fv.MINUS, alpha),
], ids=["functional", "gradient", "direct", "closed_form", "scheme_kind"])
def test_order_outside_unit_interval_refused(caller, alpha):
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 8))
    with pytest.raises(fv.DomainError, match=r"must lie in \(0, 1\]"):
        caller(fv.harmonic_oscillator(), q, alpha)
