import numpy as np
import pytest

import fracvi as fv
from fracvi.schemes import (
    SchemeFamily,
    SchemeKind,
    VERDICT_COHERENT,
    VERDICT_NOT_COHERENT,
    assemble_residual,
    jacobian,
)
from oracles import random_trajectory


def cubic_trajectory(n):
    grid = fv.make_grid(0.0, float(n), n)
    return fv.Trajectory(grid, np.arange(n + 1, dtype=float) ** 3)


def test_direct_classical_hand_case():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 4.0, 4), [0.0, 1.0, 8.0, 27.0, 64.0])
    res = fv.residual_direct_classical(lag, q, fv.MINUS)
    assert list(res.indices) == [2, 3, 4]
    np.testing.assert_array_equal(res.values.ravel(), [-6.0, -12.0, -18.0])


def test_direct_classical_plus_window():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 4.0, 4), [0.0, 1.0, 8.0, 27.0, 64.0])
    res = fv.residual_direct_classical(lag, q, fv.PLUS)
    assert list(res.indices) == [0, 1, 2]


def test_direct_classical_zero_on_linear():
    lag = fv.free_particle()
    q = fv.sample(lambda t: 3.0 * t - 1.0, fv.make_grid(0.0, 1.0, 8))
    for sigma in (fv.PLUS, fv.MINUS):
        assert fv.inf_norm(fv.residual_direct_classical(lag, q, sigma)) <= 1e-12


def test_direct_classical_needs_three_intervals():
    lag = fv.free_particle()
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 2))
    with pytest.raises(fv.DomainError):
        fv.residual_direct_classical(lag, q, fv.MINUS)


@pytest.mark.parametrize("entry", [
    lambda kind, lag, q: fv.residual_direct_classical(lag, q, kind.sigma),
    assemble_residual,
    jacobian,
    lambda kind, lag, q: fv.solve_bvp_newton(
        fv.BVPProblem(q.grid, lag, kind, q.values[0], q.values[-1]), init=q
    ),
], ids=["residual", "assemble", "jacobian", "solve"])
def test_direct_classical_n2_refused_at_every_entry(entry):
    kind = SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.MINUS)
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 2))
    with pytest.raises(fv.DomainError, match="needs n >= 3"):
        entry(kind, fv.free_particle(), q)


@pytest.mark.parametrize("family", list(SchemeFamily), ids=lambda f: f.value)
def test_layout_check_refuses_dimension_mismatch(family):
    alpha = 0.5 if family.value.endswith("fractional") else None
    kind = SchemeKind(family, fv.MINUS, alpha)
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 8))
    for entry in (assemble_residual, jacobian):
        with pytest.raises(fv.DomainError, match="dimension mismatch"):
            entry(kind, fv.free_particle(dim=2), q)


def test_direct_classical_mechanical_stencil():
    # sigma = -: the scheme is (Q_k - 2Q_{k-1} + Q_{k-2})/h^2 = -grad U(Q_k)
    rng = np.random.default_rng(21)
    omega = 1.4
    lag = fv.harmonic_oscillator(omega)
    grid = fv.make_grid(0.0, 1.0, 12)
    q = random_trajectory(rng, grid)
    res = fv.residual_direct_classical(lag, q, fv.MINUS)
    v = q.values.ravel()
    h = grid.h
    expected = np.array(
        [
            -(omega**2 * v[k] + (v[k] - 2 * v[k - 1] + v[k - 2]) / h**2)
            for k in range(2, 13)
        ]
    )
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(res.values.ravel() - expected)) <= 1e-12 * scale


def test_newton_friction_stencil_hand_case():
    q = fv.Trajectory(fv.make_grid(0.0, 3.0, 3), [1.0, 2.0, 4.0, 7.0])
    res = fv.newton_friction_direct(q)
    assert list(res.indices) == [0, 1]
    np.testing.assert_array_equal(res.values.ravel(), [3.0, 5.0])


def test_newton_friction_matches_operator_composition():
    # same scheme assembled from the forward-difference operators:
    # delta_plus applied twice, the forward velocity, and the identity
    rng = np.random.default_rng(22)
    grid = fv.make_grid(0.0, 2.0, 10)
    q = random_trajectory(rng, grid, dim=2)
    direct = fv.newton_friction_direct(q)
    acc = fv.seq_delta(fv.delta_plus(q), fv.PLUS)
    vel = fv.discrete_velocity(q, fv.PLUS)
    composed = acc.values + vel.values[:-1] + q.values[:-2]
    scale = 1.0 + float(np.max(np.abs(composed)))
    assert np.max(np.abs(direct.values - composed)) <= 1e-12 * scale


def test_vi_classical_hand_case():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 4.0, 4), [0.0, 1.0, 8.0, 27.0, 64.0])
    res = fv.residual_vi_classical(lag, q, fv.MINUS)
    assert list(res.indices) == [1, 2, 3]
    np.testing.assert_array_equal(res.values.ravel(), [-6.0, -12.0, -18.0])


def test_vi_classical_zero_on_linear():
    lag = fv.free_particle(dim=2)
    q = fv.sample(lambda t: np.array([t, 2.0 - t]), fv.make_grid(0.0, 1.0, 6))
    for sigma in (fv.PLUS, fv.MINUS):
        assert fv.inf_norm(fv.residual_vi_classical(lag, q, sigma)) <= 1e-12


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
def test_vi_classical_mechanical_stencil(sigma):
    # both sigma produce the central scheme (Q_{k+1} - 2Q_k + Q_{k-1})/h^2
    # = -grad U(Q_k)
    rng = np.random.default_rng(24)
    omega = 0.9
    lag = fv.harmonic_oscillator(omega)
    grid = fv.make_grid(0.0, 1.0, 9)
    q = random_trajectory(rng, grid)
    res = fv.residual_vi_classical(lag, q, sigma)
    v = q.values.ravel()
    h = grid.h
    expected = np.array(
        [
            -((v[k + 1] - 2 * v[k] + v[k - 1]) / h**2 + omega**2 * v[k])
            for k in range(1, 9)
        ]
    )
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(res.values.ravel() - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
def test_vi_equals_functional_gradient(sigma):
    rng = np.random.default_rng(25)
    lag = fv.pendulum(1.6, dim=2)
    q = random_trajectory(rng, fv.make_grid(0.3, 1.4, 15), dim=2)
    res = fv.residual_vi_classical(lag, q, sigma)
    grad = fv.functional_gradient(lag, q, sigma)
    scale = 1.0 + float(np.max(np.abs(grad.values)))
    assert np.max(np.abs(res.values - grad.values)) <= 1e-12 * scale


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
def test_asymmetric_direct_agrees_with_vi(sigma):
    rng = np.random.default_rng(26)
    lag = fv.harmonic_oscillator(1.1, dim=2)
    for _ in range(10):
        q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 20), dim=2)
        asym = fv.residual_asymmetric_direct(lag, q, sigma)
        vi = fv.residual_vi_classical(lag, q, sigma)
        scale = 1.0 + float(np.max(np.abs(vi.values)))
        assert np.max(np.abs(asym.values - vi.values)) <= 1e-12 * scale


def test_asymmetric_direct_zero_on_linear():
    lag = fv.free_particle()
    q = fv.sample(lambda t: 2.0 * t, fv.make_grid(0.0, 1.0, 5))
    assert fv.inf_norm(fv.residual_asymmetric_direct(lag, q, fv.MINUS)) <= 1e-12


def test_direct_fractional_hand_case():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 3.0, 3), [0.0, 1.0, 2.0, 3.0])
    res = fv.residual_direct_fractional(lag, q, fv.MINUS, 0.5)
    assert list(res.indices) == [1, 2]
    np.testing.assert_array_equal(res.values.ravel(), [0.015625, 0.5625])


def test_fractional_zero_trajectory():
    lag = fv.harmonic_oscillator(2.0)
    q = fv.sample(lambda t: 0.0, fv.make_grid(0.0, 1.0, 7))
    assert fv.inf_norm(fv.residual_direct_fractional(lag, q, fv.PLUS, 0.4)) == 0.0
    assert fv.inf_norm(fv.residual_vi_fractional(lag, q, fv.PLUS, 0.4)) == 0.0


def test_direct_fractional_alpha_one_equals_vi_classical():
    rng = np.random.default_rng(27)
    lag = fv.pendulum(0.7, dim=2)
    q = random_trajectory(rng, fv.make_grid(0.1, 1.8, 11), dim=2)
    for sigma in (fv.PLUS, fv.MINUS):
        np.testing.assert_array_equal(
            fv.residual_direct_fractional(lag, q, sigma, 1.0).values,
            fv.residual_vi_classical(lag, q, sigma).values,
        )


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_fractional_coherence(sigma, alpha):
    rng = np.random.default_rng(28)
    for lag in (fv.harmonic_oscillator(1.0), fv.pendulum(1.0)):
        q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 24))
        direct = fv.residual_direct_fractional(lag, q, sigma, alpha)
        variational = fv.residual_vi_fractional(lag, q, sigma, alpha)
        scale = 1.0 + float(np.max(np.abs(direct.values)))
        assert np.max(np.abs(direct.values - variational.values)) <= 1e-10 * scale


def test_scheme_kind_validation():
    with pytest.raises(fv.DomainError):
        SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, fv.MINUS)
    with pytest.raises(fv.DomainError):
        SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, fv.MINUS, 0.5)
    with pytest.raises(fv.DomainError):
        SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, 0)
    kind = SchemeKind(SchemeFamily.DIRECT_FRACTIONAL, fv.PLUS, 0.3)
    assert kind.is_fractional


def test_assemble_residual_dispatch():
    rng = np.random.default_rng(29)
    lag = fv.harmonic_oscillator(1.0)
    q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 8))
    for family, alpha in [
        (SchemeFamily.DIRECT_CLASSICAL, None),
        (SchemeFamily.VARIATIONAL_CLASSICAL, None),
        (SchemeFamily.ASYMMETRIC_DIRECT, None),
        (SchemeFamily.DIRECT_FRACTIONAL, 0.5),
        (SchemeFamily.VARIATIONAL_FRACTIONAL, 0.5),
    ]:
        kind = SchemeKind(family, fv.MINUS, alpha)
        res = assemble_residual(kind, lag, q)
        assert res.values.shape == (7, 1)


def test_coherence_report_cubic_witness():
    # direct gives 6 - 6k, variational -6k: constant gap of 6 on the shared
    # window, independent of the trajectory scale
    lag = fv.free_particle()
    rep = fv.coherence_report(lag, cubic_trajectory(4), fv.MINUS, kind="classical")
    assert rep.verdict == VERDICT_NOT_COHERENT
    assert abs(rep.gap - 6.0) <= 1e-12
    direct = fv.residual_direct_classical(lag, cubic_trajectory(4), fv.MINUS)
    vi = fv.residual_vi_classical(lag, cubic_trajectory(4), fv.MINUS)
    for k in (2, 3):
        assert abs((direct.value_at(k) - vi.value_at(k))[0] - 6.0) <= 1e-12


def test_coherence_report_asymmetric():
    rng = np.random.default_rng(30)
    lag = fv.harmonic_oscillator(1.0)
    q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 16))
    rep = fv.coherence_report(lag, q, fv.PLUS, kind="asymmetric")
    assert rep.verdict == VERDICT_COHERENT


def test_coherence_report_fractional_inferred():
    rng = np.random.default_rng(31)
    lag = fv.pendulum(1.0)
    q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 16))
    rep = fv.coherence_report(lag, q, fv.MINUS, alpha=0.5)
    assert rep.kind == "fractional"
    assert rep.verdict == VERDICT_COHERENT


def test_coherence_report_fractional_needs_alpha():
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 8))
    with pytest.raises(fv.DomainError, match="requires alpha"):
        fv.coherence_report(fv.free_particle(), q, fv.MINUS, kind="fractional")


def test_coherence_report_degenerate_grid():
    lag = fv.free_particle()
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 2))
    # n = 2 leaves no index where both classical paths are defined; the
    # layout check refuses it before any window is compared
    with pytest.raises(fv.DomainError, match="needs n >= 3"):
        fv.coherence_report(lag, q, fv.MINUS, kind="classical")


@pytest.mark.parametrize("kind,family", [
    ("classical", "direct-classical"), ("asymmetric", "asymmetric-direct"),
])
def test_coherence_report_refuses_alpha_of_classical_kind(kind, family):
    # alpha was dropped without a word
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 8))
    with pytest.raises(fv.DomainError, match=f"{family} does not take alpha"):
        fv.coherence_report(fv.free_particle(), q, fv.MINUS, alpha=0.5, kind=kind)


def test_coherence_csv_row_shape():
    lag = fv.free_particle()
    rep = fv.coherence_report(lag, cubic_trajectory(4), fv.MINUS, kind="classical")
    row = rep.csv_row()
    assert row[0] == "classical"
    assert row[1] == "-"
    assert row[2] == ""
    assert row[3] == "4"
    assert row[5] == VERDICT_NOT_COHERENT


def test_scheme_kind_stores_the_canonical_sigma():
    kind = SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, np.int64(-1))
    assert kind.sigma == fv.MINUS and type(kind.sigma) is int
    for bad in [True, -1.0]:
        with pytest.raises(fv.DomainError, match="sigma must be"):
            SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, bad)
