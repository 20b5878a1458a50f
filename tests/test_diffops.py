import math

import numpy as np
import pytest

import fracvi as fv


def _grid(n, a=0.0, b=1.0):
    return fv.make_grid(a, b, n)


def test_delta_plus_hand_case():
    q = fv.Trajectory(_grid(3, 0, 3), [0.0, 1.0, 4.0, 9.0])
    out = fv.delta_plus(q)
    assert out.side == fv.PLUS
    np.testing.assert_array_equal(out.values.ravel(), [-1.0, -3.0, -5.0])


def test_delta_minus_hand_case():
    q = fv.Trajectory(_grid(3, 0, 3), [0.0, 1.0, 4.0, 9.0])
    out = fv.delta_minus(q)
    assert out.side == fv.MINUS
    np.testing.assert_array_equal(out.values.ravel(), [1.0, 3.0, 5.0])


def test_delta_constant_is_zero():
    q = fv.sample(lambda t: 4.25, _grid(17))
    assert fv.inf_norm(fv.delta_plus(q)) == 0.0
    assert fv.inf_norm(fv.delta_minus(q)) == 0.0


def test_delta_exact_on_linear():
    q = fv.sample(lambda t: t, _grid(9, 0.0, 4.5))
    np.testing.assert_allclose(fv.delta_plus(q).values, -1.0, rtol=1e-14)
    np.testing.assert_allclose(fv.delta_minus(q).values, 1.0, rtol=1e-14)


def test_discrete_velocity_signs():
    q = fv.sample(lambda t: t, _grid(8))
    np.testing.assert_allclose(fv.discrete_velocity(q, fv.PLUS).values, 1.0, rtol=1e-14)
    np.testing.assert_allclose(fv.discrete_velocity(q, fv.MINUS).values, 1.0, rtol=1e-14)


@pytest.mark.parametrize("side", [fv.PLUS, fv.MINUS])
def test_delta_linearity(side):
    rng = np.random.default_rng(5)
    grid = _grid(40)
    op = fv.delta_plus if side == fv.PLUS else fv.delta_minus
    fa = rng.standard_normal((41, 2))
    gb = rng.standard_normal((41, 2))
    a, b = 1.7, -0.3
    left = op(fv.Trajectory(grid, a * fa + b * gb)).values
    right = a * op(fv.Trajectory(grid, fa)).values + b * op(fv.Trajectory(grid, gb)).values
    tol = 4.0 * np.spacing(np.maximum(np.abs(left), np.abs(right)) + 1.0)
    assert np.all(np.abs(left - right) <= tol)


def test_quadrature_constant_is_exact():
    grid = _grid(37, -2.0, 3.5)
    ones = fv.ShiftedSequence(grid, fv.MINUS, np.ones(37))
    assert math.isclose(fv.gauss_quadrature(ones), 5.5, rel_tol=1e-14)


def test_quadrature_hand_cases():
    traj = fv.sample(lambda t: t, _grid(2))
    assert fv.gauss_quadrature(fv.restrict(traj, fv.MINUS)) == 0.75
    assert fv.gauss_quadrature(fv.restrict(traj, fv.PLUS)) == 0.25


def test_seq_delta_windows():
    grid = _grid(4)
    minus_seq = fv.ShiftedSequence(grid, fv.MINUS, np.arange(4.0))
    plus_applied = fv.seq_delta(minus_seq, fv.PLUS)
    assert list(plus_applied.indices) == [1, 2, 3]
    minus_applied = fv.seq_delta(minus_seq, fv.MINUS)
    assert list(minus_applied.indices) == [2, 3, 4]


def test_ibp_constant_case():
    grid = _grid(6)
    f = fv.sample(lambda t: 1.0, grid)
    lhs, rhs = fv.check_discrete_ibp(f, f)
    assert lhs == 0.0 and rhs == 0.0


def test_ibp_hand_case():
    grid = fv.make_grid(0.0, 2.0, 2)
    f = fv.Trajectory(grid, [0.0, 1.0, 0.0])
    g = fv.Trajectory(grid, [1.0, 1.0, 1.0])
    lhs, rhs = fv.check_discrete_ibp(f, g)
    assert lhs == 0.0 and rhs == 0.0


def test_ibp_random_identity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 4))
        grid = _grid(n, -1.0, 2.0)
        f = fv.Trajectory(grid, rng.standard_normal((n + 1, d)))
        g = fv.Trajectory(grid, rng.standard_normal((n + 1, d)))
        lhs, rhs = fv.check_discrete_ibp(f, g)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@pytest.mark.parametrize("n,b", [(64, 1e-306), (16, 1e-307)])
def test_ibp_refuses_sums_outside_the_float_range(n, b):
    # 1/h is finite, but fsum overflows (n = 64) or meets inf - inf (n = 16);
    # the refusal names h
    rng = np.random.default_rng(7)
    grid = _grid(n, 0.0, b)
    f, g = (fv.Trajectory(grid, rng.standard_normal((n + 1, 2))) for _ in range(2))
    with pytest.raises(fv.DomainError, match=f"not finite floats at h = {grid.h!r}$"):
        fv.check_discrete_ibp(f, g)


def test_ibp_rejects_grid_mismatch():
    f = fv.sample(lambda t: t, _grid(4))
    g = fv.sample(lambda t: t, _grid(5))
    with pytest.raises(fv.DomainError):
        fv.check_discrete_ibp(f, g)


def test_ibp_rejects_dim_mismatch():
    grid = _grid(4)
    f = fv.Trajectory(grid, np.ones((5, 1)))
    g = fv.Trajectory(grid, np.ones((5, 2)))
    with pytest.raises(fv.DomainError):
        fv.check_discrete_ibp(f, g)


def test_forward_derivative_first_order():
    # -delta_plus approximates d/dt at order 1 for smooth curves
    f = lambda t: math.sin(2.0 * t + 0.3)
    fp = lambda t: 2.0 * math.cos(2.0 * t + 0.3)
    errors = []
    ns = [16, 32, 64, 128]
    for n in ns:
        grid = _grid(n)
        vel = fv.discrete_velocity(fv.sample(f, grid), fv.PLUS)
        exact = np.array([fp(grid.node(k)) for k in vel.indices])
        errors.append(float(np.max(np.abs(vel.values.ravel() - exact))))
    for i in range(len(ns) - 1):
        order = math.log2(errors[i] / errors[i + 1])
        assert 0.8 <= order <= 1.2


def test_composition_orders():
    # delta_plus(delta_minus .) hits -f'' at order 2; delta_minus twice
    # approximates f'' only at order 1
    f = lambda t: math.sin(2.0 * t + 0.3)
    fpp = lambda t: -4.0 * math.sin(2.0 * t + 0.3)
    sym_err, one_sided_err = [], []
    ns = [16, 32, 64, 128]
    for n in ns:
        grid = _grid(n)
        traj = fv.sample(f, grid)
        dm = fv.delta_minus(traj)
        sym = fv.seq_delta(dm, fv.PLUS)
        exact_sym = np.array([-fpp(grid.node(k)) for k in sym.indices])
        sym_err.append(float(np.max(np.abs(sym.values.ravel() - exact_sym))))
        oss = fv.seq_delta(dm, fv.MINUS)
        exact_oss = np.array([fpp(grid.node(k)) for k in oss.indices])
        one_sided_err.append(float(np.max(np.abs(oss.values.ravel() - exact_oss))))
    for i in range(len(ns) - 1):
        assert 1.8 <= math.log2(sym_err[i] / sym_err[i + 1]) <= 2.2
        assert 0.8 <= math.log2(one_sided_err[i] / one_sided_err[i + 1]) <= 1.2
