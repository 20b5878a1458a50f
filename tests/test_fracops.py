import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracvi as fv
from fracvi import fracops
from fracvi.fracops import _kernel
from fracvi.solver import BVPProblem, NewtonConfig, solve_bvp_newton
from oracles import gl_kernel, gl_sum


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
        kernel = _kernel(alpha, n, side, False)
        assert kernel.shape == (n, n + 1), n
        assert kernel.flags.c_contiguous and not kernel.flags.writeable
        for row in range(n):
            k = row + 1 if side == fv.MINUS else row
            for j in range(n + 1):
                r = k - j if side == fv.MINUS else j - k
                assert kernel[row, j] == (w[r] if r >= 0 else 0.0), (n, row, j)


def _fresh_kernel(alpha, n, side):
    # the kernel by its definition, entry by entry
    return gl_kernel(fv.gl_coefficients(alpha, n), n, side)


def clear_operators():
    # empty the builder's memory of recent kernels and adjoints, and its counts
    _kernel.cache_clear()


def builds():
    """Kernels and adjoints built since the last :func:`clear_operators`."""
    return _kernel.cache_info().misses


@pytest.fixture
def fresh():
    # each test counts its own builds, and leaves no large array held
    clear_operators()
    yield
    clear_operators()


def _check_builder(calls):
    # each call: (alpha, n, side, adjoint), then the arrays it builds; a
    # key asked for before comes back as the same array exactly when the
    # call builds nothing
    held = {}
    for count, (key, built) in enumerate(calls):
        before = builds()
        array = _kernel(*key)
        assert builds() - before == built, count
        if key in held:
            assert (held[key] is array) == (not built), count
        held[key] = array
        assert array.flags.c_contiguous and not array.flags.writeable
        alpha, n, side, adjoint = key
        kernel = _fresh_kernel(alpha, n, side)
        assert np.array_equal(array, kernel[:, 1:n].T if adjoint else kernel), count
        assert _kernel.cache_info().currsize <= 2


def _minus(n, adjoint):
    return (0.5, n, fv.MINUS, adjoint)


def test_kernel_builder_keeps_its_two_most_recent_kernels(fresh):
    _check_builder([
        (_minus(30, False), 1),
        (_minus(20, False), 1),
        (_minus(30, False), 0),  # a hit becomes the most recent
        (_minus(40, False), 1),  # the least recent, n = 20, goes
        (_minus(30, False), 0),
        (_minus(20, False), 1),
        ((0.3, 60, fv.PLUS, False), 1),
        (_minus(20, False), 0),
    ])


def test_adjoint_builder_keeps_its_two_most_recent_adjoints(fresh):
    # kernels and adjoints share one memory of two; an adjoint is built from
    # the GL weights, as its kernel is, and asks for no kernel
    _check_builder([
        (_minus(30, True), 1),  # the adjoint alone
        (_minus(30, False), 1),  # its kernel, built on its own
        (_minus(20, True), 1),  # the least recent, the adjoint of n = 30, goes
        (_minus(20, True), 0),  # a hit becomes the most recent
        (_minus(30, False), 0),
        (_minus(30, True), 1),  # the adjoint of n = 20 goes
        (_minus(20, True), 1),  # the kernel of n = 30 goes
        ((0.3, 60, fv.PLUS, True), 1),
        (_minus(20, True), 0),
    ])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True), st.integers(1, 600),
       st.sampled_from([fv.MINUS, fv.PLUS]))
def test_adjoint_is_a_strided_copy_of_its_kernel(alpha, n, side):
    # with the memory empty, an adjoint request builds the adjoint alone,
    # from the weights; its kernel is built after it, and both stay held
    clear_operators()
    try:
        adjoint = _kernel(alpha, n, side, True)
        assert builds() == 1
        kernel = _kernel(alpha, n, side, False)
        assert _kernel(alpha, n, side, True) is adjoint and builds() == 2
    finally:
        clear_operators()
    assert adjoint.shape == (n - 1, n)
    assert adjoint.flags.c_contiguous and not adjoint.flags.writeable
    assert adjoint.tobytes() == np.ascontiguousarray(kernel[:, 1:n].T).tobytes()


def test_large_residuals_build_their_operators_once(fresh):
    # n = 4200: the kernel and its adjoint take 141 MB each, more than a
    # byte-bounded memory of 256 MiB held together, which rebuilt both at
    # every residual; three residuals in a row build each once
    grid = fv.make_grid(0.0, 1.0, 4200)
    q = fv.sample(np.sin, grid)
    kind = fv.SchemeKind(fv.SchemeFamily.VARIATIONAL_FRACTIONAL, fv.MINUS, 0.5)
    fields = [fv.assemble_residual(kind, fv.free_particle(), q) for _ in range(3)]
    assert builds() == 2
    assert all(np.array_equal(f.values, fields[0].values) for f in fields)


def test_retained_operators_are_two_arrays(fresh):
    # every (alpha, sigma) pair of both fractional families at n = 256, then
    # the public operators up to n = 512: what stays held afterwards is the
    # last two arrays built, the two kernels of n = 512
    tracemalloc.start()
    try:
        grid = fv.make_grid(0.0, 1.0, 256)
        for alpha in (0.3, 0.5, 0.8):
            for sigma in (fv.MINUS, fv.PLUS):
                for family in (fv.SchemeFamily.VARIATIONAL_FRACTIONAL, fv.SchemeFamily.DIRECT_FRACTIONAL):
                    kind = fv.SchemeKind(family, sigma, alpha)
                    problem = BVPProblem(grid, fv.harmonic_oscillator(), kind, [0.0], [1.0])
                    solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
        for n in (64, 128, 256, 512):
            q = fv.sample(np.sin, fv.make_grid(0.0, 1.0, n))
            fv.delta_alpha_minus(q, 0.4)
            fv.delta_alpha_plus(q, 0.6)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _kernel.cache_info().currsize == 2
    assert held <= 2 * 8 * 512 * 513 + 2**16


@pytest.mark.parametrize("side", [fv.MINUS, fv.PLUS])
def test_adjoint_is_the_opposite_side_kernel(side):
    # the GL claim, entry for entry: the variational gradient's outer
    # operator is the direct embedding's, so both families' Gram matrices
    # A K[:, 1:n] are one matrix
    for n in (2, 3, 17, 64):
        for alpha in (0.05, 0.37, 1.0):
            assert np.array_equal(_kernel(alpha, n, side, True), _kernel(alpha, n - 1, -side, False))


@pytest.mark.parametrize("side", [fv.MINUS, fv.PLUS])
def test_alpha_one_is_the_two_point_difference(side, fresh):
    # alpha = 1 builds no kernel: the products are the two-point
    # differences, equal to the dense ones for finite values
    rng = np.random.default_rng(64)
    for d in (1, 2, 3):
        for n in (2, 3, 17, 64):
            y = rng.uniform(-2.0, 2.0, (n + 1, d))
            clear_operators()
            applied = fracops._operator(1.0, n, side, False)(y)
            adjoint = fracops._operator(1.0, n, side, True)(y[1:])
            assert builds() == 0
            assert np.array_equal(applied, _kernel(1.0, n, side, False) @ y)
            assert np.array_equal(adjoint, _kernel(1.0, n, side, True) @ y[1:])


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.7])
@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("side", [fv.MINUS, fv.PLUS])
def test_a_stack_of_trials_is_its_per_trial_products(side, adjoint, alpha):
    # one shape contract at every order: a (trials, m, d) stack maps along
    # its node axis, each trial as it maps alone; at alpha = 1 the two-point
    # difference is also the dense kernel's product
    rng = np.random.default_rng(71)
    for d in (1, 2, 3):
        for n in (2, 3, 17, 64):
            apply = fracops._operator(alpha, n, side, adjoint)
            for trials in (1, 2, 5):
                stack = rng.uniform(-2.0, 2.0, (trials, n if adjoint else n + 1, d))
                got = apply(stack)
                assert got.tobytes() == np.array([apply(y) for y in stack]).tobytes()
                if alpha == 1:
                    assert got.tobytes() == (_kernel(1.0, n, side, adjoint) @ stack).tobytes()


def test_classical_and_alpha_one_solves_leave_no_cache_entry(fresh):
    grid = fv.make_grid(0.0, 1.0, 64)
    lag = fv.pendulum(1.0)
    for family in fv.SchemeFamily:
        alpha = 1.0 if family.value.endswith("fractional") else None
        kind = fv.SchemeKind(family, fv.MINUS, alpha)
        solve_bvp_newton(BVPProblem(grid, lag, kind, [0.0], [1.0]))
    q = fv.sample(lambda t: t * t, grid)
    fv.discrete_functional(lag, q, fv.PLUS)
    fv.functional_gradient(lag, q, fv.PLUS)
    assert builds() == 0


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


def test_every_gl_entry_refuses_the_scale_before_the_weights():
    # at h = 1/64 an order of 1e300 overflows both the scale and the
    # weights: every entry takes the scale first, so all name h
    q = fv.Trajectory(fv.make_grid(0.0, 1.0, 64), np.zeros(65))
    calls = {
        "delta_alpha_minus": lambda: fv.delta_alpha_minus(q, 1e300),
        "delta_alpha_plus": lambda: fv.delta_alpha_plus(q, 1e300),
        "velocity MINUS": lambda: fv.discrete_velocity_alpha(q, fv.MINUS, 1e300),
        "velocity PLUS": lambda: fv.discrete_velocity_alpha(q, fv.PLUS, 1e300),
        "frac_seq_minus": lambda: fracops.frac_seq_minus(fv.restrict(q, fv.PLUS), 1e300),
        "frac_seq_plus": lambda: fracops.frac_seq_plus(fv.restrict(q, fv.MINUS), 1e300),
        "check_discrete_frac_ibp": lambda: fv.check_discrete_frac_ibp(q, q, 1e300),
    }
    refused = {}
    for name, call in calls.items():
        with pytest.raises(fv.DomainError) as info:
            call()
        refused[name] = str(info.value)
    message = "GL scale h^-alpha leaves the float range at h = 0.015625, alpha = 1e+300"
    assert refused == dict.fromkeys(calls, message)


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


@pytest.mark.parametrize("alpha", [None, 0.5], ids=["classical", "fractional"])
def test_ibp_pair_refusals_come_in_order(alpha):
    # order, grid, dimension, then (fractional only) the boundary hypothesis;
    # every pair below but the last is nonzero at both ends, so it breaks the
    # fractional hypothesis too, and the earlier refusal still names itself
    def entry(f, g, order=alpha):
        if order is None:
            return fv.check_discrete_ibp(f, g)
        return fv.check_discrete_frac_ibp(f, g, order)

    grid = fv.make_grid(0.0, 1.0, 8)
    ones = fv.Trajectory(grid, np.ones((9, 1)))
    finer = fv.Trajectory(fv.make_grid(0.0, 1.0, 9), np.ones((10, 1)))
    wide = fv.Trajectory(grid, np.ones((9, 2)))
    with pytest.raises(fv.DomainError, match="^integration by parts requires a common grid$"):
        entry(ones, finer)
    with pytest.raises(fv.DomainError, match="^dimension mismatch: 1 vs 2$"):
        entry(ones, wide)
    if alpha is None:
        lhs, rhs = entry(ones, ones)  # no hypothesis: the boundary term is kept
        assert abs(lhs - rhs) <= 1e-12
        return
    with pytest.raises(fv.DomainError, match="^fractional order must be finite and positive"):
        entry(ones, finer, 0.0)
    with pytest.raises(fv.DomainError, match="^hypothesis violated"):
        entry(ones, ones)
    zero_ends = fv.Trajectory(grid, np.ones((9, 1)) * (np.arange(9) % 8 != 0)[:, None])
    lhs, rhs = entry(zero_ends, ones)
    assert abs(lhs - rhs) <= 1e-12


def _operator_sums(f, g, alpha):
    """Both ibp sides from the public operators, trial by trial."""
    order = 1.0 if alpha is None else alpha
    lhs = fv.delta_alpha_minus(f, order).values * g.values[1:]
    rhs = [(f.values[:-1] * fv.delta_alpha_plus(g, order).values).ravel()]
    if alpha is None:  # the boundary term, times 1/h as the check takes it
        hinv = 1.0 / f.grid.h
        rhs.append([float(np.dot(f.values[-1], g.values[-1])) * hinv,
                    -float(np.dot(f.values[0], g.values[0])) * hinv])
    return math.fsum(lhs.ravel()), math.fsum(np.concatenate(rhs))


@pytest.mark.parametrize("alpha", [None, 0.3, 0.5, 0.8, 0.999, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ibp_batch_is_the_pair_check_trial_by_trial(alpha, d):
    # `fracvi ibp` checks its trials in stacks; each trial's sides must be
    # the bytes of the pair check on that trial's trajectories, and those of
    # the public operators' sums.  One wide (n + 1, trials * d) product in
    # place of one per trial rounds differently and fails this
    rng = np.random.default_rng(53 + d)
    for n in (2, 3, 5, 8, 17, 32, 63, 100, 128, 200):
        grid = fv.make_grid(0.0, 1.0, n)
        sides = fracops._ibp_sides(grid, alpha)
        for trials in (1, 2, 5, 12):
            fg = rng.standard_normal((trials, 2, n + 1, d))
            if alpha is not None:
                fg[:, 0, [0, -1]] = 0.0
            batch = sides(fg[:, 0], fg[:, 1])
            assert len(batch) == trials
            for (f, g), got in zip(fg, batch):
                f, g = fv.Trajectory(grid, f), fv.Trajectory(grid, g)
                pair = (fv.check_discrete_ibp(f, g) if alpha is None
                        else fv.check_discrete_frac_ibp(f, g, alpha))
                want = np.array(_operator_sums(f, g, alpha)).tobytes()
                assert np.array(got).tobytes() == np.array(pair).tobytes() == want, (n, trials)


def test_rl_monomial_hand_values():
    assert math.isclose(fv.rl_monomial_derivative(1.0, 1.0, 1.0), 1.0, rel_tol=1e-13)
    # no order is the classical one, alpha = 1
    assert fv.rl_monomial_derivative(1.0, None, 1.0) == fv.rl_monomial_derivative(1.0, 1.0, 1.0)
    assert fv.rl_monomial_derivative(2.5, None, 0.7) == fv.rl_monomial_derivative(2.5, 1.0, 0.7)
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
    # a non-finite beta or s is refused by name, after the earlier refusals
    for beta, s in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(fv.DomainError, match=f"^beta and s must be finite, got beta = {beta}, s = {s}$"):
            fv.rl_monomial_derivative(beta, 0.5, s)
    with pytest.raises(fv.DomainError, match="^monomial exponent must exceed -1, got -inf$"):
        fv.rl_monomial_derivative(-math.inf, 0.5, 1.0)
    with pytest.raises(fv.DomainError, match="^offset s = t - a must be positive, got -inf$"):
        fv.rl_monomial_derivative(math.nan, 0.5, -math.inf)
    with pytest.raises(fv.DomainError, match=r"^fractional order must lie in \(0, 1\]"):
        fv.rl_monomial_derivative(math.nan, 1.5, math.nan)  # the order comes first


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
    lambda lag, q, alpha: fv.rl_monomial_derivative(1.0, alpha, 1.0),
    lambda lag, q, alpha: fv.SchemeKind(fv.SchemeFamily.DIRECT_FRACTIONAL, fv.MINUS, alpha),
], ids=["functional", "gradient", "closed_form", "scheme_kind"])
def test_order_outside_unit_interval_refused(caller, alpha):
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 8))
    with pytest.raises(fv.DomainError, match=r"must lie in \(0, 1\]"):
        caller(fv.harmonic_oscillator(), q, alpha)
