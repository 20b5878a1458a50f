
import dataclasses
from collections import Counter

import numpy as np
import pytest

import fracvi as fv
from fracvi.schemes import SchemeFamily, SchemeKind, assemble_residual
from oracles import (
    coupled_lagrangian,
    fd_functional_gradient,
    fd_lagrangian_partials,
    random_trajectory,
)


@pytest.mark.parametrize("dim", [1, 2])
def test_partials_match_finite_differences(dim):
    rng = np.random.default_rng(2)
    for lag in (fv.harmonic_oscillator(1.7, dim=dim), fv.pendulum(0.8, dim=dim),
                coupled_lagrangian(dim)):
        for _ in range(10):
            x = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            t = float(rng.uniform(0.0, 2.0))
            fd_lx, fd_lv = fd_lagrangian_partials(lag, x, v, t)
            scale = 1.0 + max(np.max(np.abs(fd_lx)), np.max(np.abs(fd_lv)))
            assert np.max(np.abs(lag.Lx(x, v, t) - fd_lx)) <= 1e-6 * scale
            assert np.max(np.abs(lag.Lv(x, v, t) - fd_lv)) <= 1e-6 * scale


def test_mechanical_partials_exact():
    lag = fv.pendulum(2.0, dim=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(3)
    v = rng.standard_normal(3)
    np.testing.assert_array_equal(lag.Lv(x, v, 0.3), v)
    np.testing.assert_array_equal(lag.Lx(x, v, 0.3), -4.0 * np.sin(x))


def test_builtin_lookup():
    assert fv.builtin_problem("free").name == "free"
    assert fv.builtin_problem("harmonic", omega=2.0).name == "harmonic"
    assert fv.builtin_problem("pendulum").name == "pendulum"
    with pytest.raises(fv.DomainError):
        fv.builtin_problem("nope")


def test_classical_functional_hand_case():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 2.0, 2), [0.0, 1.0, 2.0])
    assert fv.discrete_functional(lag, q, fv.MINUS) == 1.0


def test_functional_zero_trajectory():
    lag = fv.harmonic_oscillator(3.0)
    q = fv.sample(lambda t: 0.0, fv.make_grid(0.0, 1.0, 8))
    assert fv.discrete_functional(lag, q, fv.PLUS) == 0.0
    assert fv.discrete_functional(lag, q, fv.MINUS, 0.5) == 0.0


def test_functional_pure():
    lag = fv.pendulum(1.1)
    rng = np.random.default_rng(6)
    q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 12))
    first = fv.discrete_functional(lag, q, fv.MINUS)
    assert fv.discrete_functional(lag, q, fv.MINUS) == first


def test_fractional_functional_hand_case():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 3.0, 3), [0.0, 1.0, 2.0, 3.0])
    assert fv.discrete_functional(lag, q, fv.MINUS, 0.5) == 3.3828125


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
def test_fractional_functional_reduces_exactly(sigma):
    rng = np.random.default_rng(8)
    lag = fv.pendulum(1.4, dim=2)
    q = random_trajectory(rng, fv.make_grid(0.2, 1.9, 13), dim=2)
    assert fv.discrete_functional(lag, q, sigma, 1.0) == fv.discrete_functional(lag, q, sigma)


def test_functional_rejects_bad_alpha():
    lag = fv.free_particle()
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 4))
    for alpha in (0.0, 1.5, -0.2):
        with pytest.raises(fv.DomainError):
            fv.discrete_functional(lag, q, fv.MINUS, alpha)


def test_functional_rejects_dim_mismatch():
    lag = fv.free_particle(dim=2)
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 4))
    with pytest.raises(fv.DomainError):
        fv.discrete_functional(lag, q, fv.MINUS)


def test_gradient_classical_hand_case():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 3.0, 3), [0.0, 1.0, 4.0, 9.0])
    grad = fv.functional_gradient(lag, q, fv.MINUS)
    assert list(grad.indices) == [1, 2]
    np.testing.assert_array_equal(grad.values.ravel(), [-2.0, -2.0])
    # same values via the central stencil (2 Q_k - Q_{k-1} - Q_{k+1})/h^2
    v = q.values.ravel()
    stencil = np.array([2 * v[k] - v[k - 1] - v[k + 1] for k in (1, 2)])
    np.testing.assert_array_equal(grad.values.ravel(), stencil)


def test_gradient_fractional_hand_case():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 3.0, 3), [0.0, 1.0, 2.0, 3.0])
    grad = fv.functional_gradient(lag, q, fv.MINUS, 0.5)
    np.testing.assert_array_equal(grad.values.ravel(), [0.015625, 0.5625])


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
@pytest.mark.parametrize("alpha", [None, 0.5, 0.9])
def test_gradient_matches_finite_differences(sigma, alpha):
    rng = np.random.default_rng(9)
    lag = coupled_lagrangian()
    q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 9))
    grad = fv.functional_gradient(lag, q, sigma, alpha)
    fd = fd_functional_gradient(lag, q, sigma, alpha)
    scale = 1.0 + float(np.max(np.abs(grad.values)))
    assert np.max(np.abs(grad.values - fd)) <= 1e-6 * scale


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
def test_directional_derivative_consistency(sigma):
    # the key variational property: D L_h(Q)(W) = h sum_k G_k . W_k for
    # variations W vanishing at both endpoints
    rng = np.random.default_rng(10)
    lag = fv.pendulum(1.2, dim=2)
    grid = fv.make_grid(0.0, 1.5, 11)
    q = random_trajectory(rng, grid, dim=2)
    w = rng.standard_normal((12, 2))
    w[0] = 0.0
    w[-1] = 0.0
    for alpha in (None, 0.6):
        grad = fv.functional_gradient(lag, q, sigma, alpha)
        pairing = grid.h * float(np.sum(grad.values * w[1:-1]))
        eps = 1e-6

        def functional(vals):
            return fv.discrete_functional(lag, fv.Trajectory(grid, vals), sigma, alpha)

        directional = (
            functional(q.values + eps * w) - functional(q.values - eps * w)
        ) / (2.0 * eps)
        assert abs(directional - pairing) <= 1e-6 * (1.0 + abs(pairing))


def test_gradient_fractional_reduces_exactly():
    rng = np.random.default_rng(12)
    lag = fv.harmonic_oscillator(0.9, dim=2)
    q = random_trajectory(rng, fv.make_grid(0.1, 2.3, 14), dim=2)
    for sigma in (fv.PLUS, fv.MINUS):
        np.testing.assert_array_equal(
            fv.functional_gradient(lag, q, sigma, 1.0).values,
            fv.functional_gradient(lag, q, sigma).values,
        )


def test_gradient_mechanical_stencil():
    # for the mechanical Lagrangian the gradient is the central second
    # difference plus the potential gradient, with a leading minus sign
    rng = np.random.default_rng(13)
    lag = fv.harmonic_oscillator(1.3)
    grid = fv.make_grid(0.0, 1.0, 16)
    q = random_trajectory(rng, grid)
    grad = fv.functional_gradient(lag, q, fv.MINUS)
    v = q.values.ravel()
    h = grid.h
    expected = np.array(
        [
            -((v[k + 1] - 2 * v[k] + v[k - 1]) / h**2 + 1.3**2 * v[k])
            for k in range(1, 16)
        ]
    )
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(grad.values.ravel() - expected)) <= 1e-12 * scale


# --- the array callback contract ------------------------------------------


def counting_lagrangian(lag):
    """The same Lagrangian with a count of calls per callback name."""
    calls = Counter()

    def counted(name, fn):
        def call(x, v, t):
            calls[name] += 1
            return fn(x, v, t)

        return call

    return dataclasses.replace(
        lag, L=counted("L", lag.L), Lx=counted("Lx", lag.Lx), Lv=counted("Lv", lag.Lv)
    ), calls


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
@pytest.mark.parametrize("family", list(SchemeFamily), ids=lambda f: f.value)
def test_one_assembly_calls_lx_and_lv_once(family, sigma):
    lag, calls = counting_lagrangian(fv.pendulum(0.9, dim=2))
    q = random_trajectory(np.random.default_rng(40), fv.make_grid(0.0, 1.0, 16), dim=2)
    alpha = 0.6 if family.value.endswith("fractional") else None
    assemble_residual(SchemeKind(family, sigma, alpha), lag, q)
    assert calls == {"Lx": 1, "Lv": 1}


@pytest.mark.parametrize("alpha", [None, 0.6])
def test_one_functional_calls_l_once(alpha):
    lag, calls = counting_lagrangian(coupled_lagrangian(2))
    q = random_trajectory(np.random.default_rng(41), fv.make_grid(0.0, 1.0, 16), dim=2)
    for sigma in (fv.PLUS, fv.MINUS):
        calls.clear()
        fv.discrete_functional(lag, q, sigma, alpha)
        assert calls == {"L": 1}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("make", [
    fv.free_particle,
    lambda dim: fv.harmonic_oscillator(1.7, dim=dim),
    lambda dim: fv.pendulum(0.8, dim=dim),
    coupled_lagrangian,
], ids=["free", "harmonic", "pendulum", "coupled"])
def test_batch_equals_per_node(make, dim):
    lag = make(dim)
    rng = np.random.default_rng(42)
    x = rng.standard_normal((9, dim))
    v = rng.standard_normal((9, dim))
    t = rng.uniform(0.0, 2.0, 9)
    for fn in (lag.L, lag.Lx, lag.Lv):
        rows = np.array([fn(x[i], v[i], t[i]) for i in range(9)])
        np.testing.assert_array_equal(fn(x, v, t), rows)


def per_node_only(name):
    """A Lagrangian whose ``name`` callback ignores the batch axis."""
    lag = fv.harmonic_oscillator(1.0, dim=2)
    broken = {
        "L": lambda x, v, t: float(np.sum(v * v)),
        "Lx": lambda x, v, t: -x[0],
        "Lv": lambda x, v, t: v[0],
    }
    return dataclasses.replace(lag, **{name: broken[name]})


@pytest.mark.parametrize("name", ["L", "Lx", "Lv"])
def test_wrong_callback_shape_refused(name):
    lag = per_node_only(name)
    q = random_trajectory(np.random.default_rng(43), fv.make_grid(0.0, 1.0, 8), dim=2)
    with pytest.raises(fv.DomainError, match=rf"callback {name} returned shape"):
        if name == "L":
            fv.discrete_functional(lag, q, fv.MINUS, 0.5)
        else:
            fv.residual_direct_classical(lag, q, fv.PLUS)


@pytest.mark.parametrize("dim,message", [
    (2.5, "Lagrangian dim must be an integer, got 2.5"),
    (True, "Lagrangian dim must be an integer, got True"),
    (0, "Lagrangian dim must be at least 1, got 0"),
], ids=["float", "bool", "zero"])
def test_lagrangian_dim_refused_at_construction(dim, message):
    with pytest.raises(fv.DomainError, match=message):
        fv.builtin_problem("harmonic", dim=dim)
