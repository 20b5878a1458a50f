import dataclasses

import numpy as np
import pytest

import fracvi as fv
from fracvi.schemes import (
    COHERENCE_RTOL,
    SchemeFamily,
    SchemeKind,
    VERDICT_COHERENT,
    VERDICT_NOT_COHERENT,
    assemble_residual,
    jacobian,
)
from fracvi.lagrangians import FD_NOISE
from oracles import coupled_lagrangian, dense_from_bands, random_trajectory


FRACTIONAL = (SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.VARIATIONAL_FRACTIONAL)


def cubic_trajectory(n):
    grid = fv.make_grid(0.0, float(n), n)
    return fv.Trajectory(grid, np.arange(n + 1, dtype=float) ** 3)


def test_direct_classical_hand_case():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 4.0, 4), [0.0, 1.0, 8.0, 27.0, 64.0])
    res = assemble_residual(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.MINUS), lag, q)
    assert list(res.indices) == [2, 3, 4]
    np.testing.assert_array_equal(res.values.ravel(), [-6.0, -12.0, -18.0])


def test_direct_classical_plus_window():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 4.0, 4), [0.0, 1.0, 8.0, 27.0, 64.0])
    res = assemble_residual(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.PLUS), lag, q)
    assert list(res.indices) == [0, 1, 2]


def test_direct_classical_zero_on_linear():
    lag = fv.free_particle()
    q = fv.sample(lambda t: 3.0 * t - 1.0, fv.make_grid(0.0, 1.0, 8))
    for sigma in (fv.PLUS, fv.MINUS):
        kind = SchemeKind(SchemeFamily.DIRECT_CLASSICAL, sigma)
        assert fv.inf_norm(assemble_residual(kind, lag, q)) <= 1e-12


def test_direct_classical_needs_three_intervals():
    lag = fv.free_particle()
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 2))
    with pytest.raises(fv.DomainError):
        assemble_residual(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.MINUS), lag, q)


@pytest.mark.parametrize("entry", [
    assemble_residual,
    jacobian,
    lambda kind, lag, q: fv.solve_bvp_newton(
        fv.BVPProblem(q.grid, lag, kind, q.values[0], q.values[-1]), init=q
    ),
], ids=["assemble", "jacobian", "solve"])
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
    res = assemble_residual(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.MINUS), lag, q)
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
    res = assemble_residual(SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, fv.MINUS), lag, q)
    assert list(res.indices) == [1, 2, 3]
    np.testing.assert_array_equal(res.values.ravel(), [-6.0, -12.0, -18.0])


def test_vi_classical_zero_on_linear():
    lag = fv.free_particle(dim=2)
    q = fv.sample(lambda t: np.array([t, 2.0 - t]), fv.make_grid(0.0, 1.0, 6))
    for sigma in (fv.PLUS, fv.MINUS):
        kind = SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, sigma)
        assert fv.inf_norm(assemble_residual(kind, lag, q)) <= 1e-12


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
def test_vi_classical_mechanical_stencil(sigma):
    # both sigma produce the central scheme (Q_{k+1} - 2Q_k + Q_{k-1})/h^2
    # = -grad U(Q_k)
    rng = np.random.default_rng(24)
    omega = 0.9
    lag = fv.harmonic_oscillator(omega)
    grid = fv.make_grid(0.0, 1.0, 9)
    q = random_trajectory(rng, grid)
    res = assemble_residual(SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, sigma), lag, q)
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
    res = assemble_residual(SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, sigma), lag, q)
    grad = fv.functional_gradient(lag, q, sigma)
    scale = 1.0 + float(np.max(np.abs(grad.values)))
    assert np.max(np.abs(res.values - grad.values)) <= 1e-12 * scale


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
def test_asymmetric_direct_agrees_with_vi(sigma):
    rng = np.random.default_rng(26)
    lag = fv.harmonic_oscillator(1.1, dim=2)
    for _ in range(10):
        q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 20), dim=2)
        asym = assemble_residual(SchemeKind(SchemeFamily.ASYMMETRIC_DIRECT, sigma), lag, q)
        vi = assemble_residual(SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, sigma), lag, q)
        scale = 1.0 + float(np.max(np.abs(vi.values)))
        assert np.max(np.abs(asym.values - vi.values)) <= 1e-12 * scale


def test_asymmetric_direct_zero_on_linear():
    lag = fv.free_particle()
    q = fv.sample(lambda t: 2.0 * t, fv.make_grid(0.0, 1.0, 5))
    kind = SchemeKind(SchemeFamily.ASYMMETRIC_DIRECT, fv.MINUS)
    assert fv.inf_norm(assemble_residual(kind, lag, q)) <= 1e-12


def test_direct_fractional_hand_case():
    lag = fv.free_particle()
    q = fv.Trajectory(fv.make_grid(0.0, 3.0, 3), [0.0, 1.0, 2.0, 3.0])
    res = assemble_residual(SchemeKind(SchemeFamily.DIRECT_FRACTIONAL, fv.MINUS, 0.5), lag, q)
    assert list(res.indices) == [1, 2]
    np.testing.assert_array_equal(res.values.ravel(), [0.015625, 0.5625])


def test_fractional_zero_trajectory():
    lag = fv.harmonic_oscillator(2.0)
    q = fv.sample(lambda t: 0.0, fv.make_grid(0.0, 1.0, 7))
    for family in FRACTIONAL:
        kind = SchemeKind(family, fv.PLUS, 0.4)
        assert fv.inf_norm(assemble_residual(kind, lag, q)) == 0.0


def test_direct_fractional_alpha_one_equals_vi_classical():
    rng = np.random.default_rng(27)
    lag = fv.pendulum(0.7, dim=2)
    q = random_trajectory(rng, fv.make_grid(0.1, 1.8, 11), dim=2)
    for sigma in (fv.PLUS, fv.MINUS):
        direct = SchemeKind(SchemeFamily.DIRECT_FRACTIONAL, sigma, 1.0)
        vi = SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, sigma)
        np.testing.assert_array_equal(
            assemble_residual(direct, lag, q).values, assemble_residual(vi, lag, q).values
        )


@pytest.mark.parametrize("sigma", [fv.PLUS, fv.MINUS])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_fractional_coherence(sigma, alpha):
    rng = np.random.default_rng(28)
    for lag in (fv.harmonic_oscillator(1.0), fv.pendulum(1.0)):
        q = random_trajectory(rng, fv.make_grid(0.0, 1.0, 24))
        kinds = [SchemeKind(family, sigma, alpha) for family in FRACTIONAL]
        direct, variational = (assemble_residual(kind, lag, q) for kind in kinds)
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
    assert kind.alpha == 0.3


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
    q = cubic_trajectory(4)
    direct = assemble_residual(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, fv.MINUS), lag, q)
    vi = assemble_residual(SchemeKind(SchemeFamily.VARIATIONAL_CLASSICAL, fv.MINUS), lag, q)
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


@pytest.mark.parametrize("scale", [0.0, 1.0, 3.7e5])
def test_coherence_report_rule_at_its_boundary(scale):
    # coherent is gap <= COHERENCE_RTOL * (1 + scale), and the verdict its
    # label: the boundary is coherent, the next float above it is not
    bound = COHERENCE_RTOL * (1.0 + scale)
    rep = fv.CoherenceReport("classical", fv.MINUS, None, 8, bound, scale, 2)
    assert rep.coherent and rep.verdict == VERDICT_COHERENT
    assert rep.text().endswith("-> COHERENT") and rep.csv_row()[-1] == VERDICT_COHERENT
    above = dataclasses.replace(rep, gap=np.nextafter(bound, np.inf))
    assert not above.coherent and above.verdict == VERDICT_NOT_COHERENT
    assert above.text().endswith("-> NOT COHERENT")
    assert above.csv_row()[-1] == VERDICT_NOT_COHERENT
    nan = dataclasses.replace(rep, gap=np.nan)
    assert not nan.coherent and nan.verdict == VERDICT_NOT_COHERENT
    assert "verdict" not in {f.name for f in dataclasses.fields(fv.CoherenceReport)}


def test_coherence_report_fractional_needs_alpha():
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 8))
    with pytest.raises(fv.DomainError, match="requires alpha"):
        fv.coherence_report(fv.free_particle(), q, fv.MINUS, kind="fractional")


def test_coherence_report_refuses_an_unknown_kind():
    q = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 8))
    message = "kind must be one of ('classical', 'asymmetric', 'fractional'), got 'bogus'"
    with pytest.raises(fv.DomainError) as info:
        fv.coherence_report(fv.free_particle(), q, fv.MINUS, kind="bogus")
    assert str(info.value) == message


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


def reflected_lagrangian(lag, grid):
    """L~(x, v, t) = L(x, -v, t~), with t~ = t_{n-k} the reflected grid's
    own node at t = t_k (a + b - t_k need not round to it): the Lagrangian
    whose sigma - scheme on the reversed trajectory reflects lag's sigma +."""
    def mirror(t):
        return grid.nodes[grid.n - np.rint((t - grid.a) / grid.h).astype(int)]

    return fv.Lagrangian(L=lambda x, v, t: lag.L(x, -v, mirror(t)),
                         Lx=lambda x, v, t: lag.Lx(x, -v, mirror(t)),
                         Lv=lambda x, v, t: -lag.Lv(x, -v, mirror(t)), dim=lag.dim)


def reflection_pair(problem, grid, d):
    """The problem's Lagrangian and the one its reflection solves: itself
    for the built-ins, autonomous and even in v, else L~."""
    if problem == "coupled":
        lag = coupled_lagrangian(d)
        return lag, reflected_lagrangian(lag, grid)
    lag = fv.builtin_problem(problem, omega=1.5, dim=d)
    return lag, lag


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("problem", ["harmonic", "pendulum", "coupled"])
@pytest.mark.parametrize("family", list(SchemeFamily))
def test_sigma_plus_residual_is_the_reflected_sigma_minus_residual(family, problem, n, d):
    # reversing time, Q_k -> Q_{n-k}, maps each family's sigma + scheme of L
    # onto its sigma - scheme of L~ (L itself when L is autonomous and even
    # in v): row k of the one is row n - k of the other.  At alpha = 1 the
    # residual holds bytes and all, and so do the Jacobian's bands (reversed
    # in band and in row) for L~ = L.  Below it the two GL kernels sum in
    # opposite orders: the residual agrees within n eps max|R|, and the
    # dense Jacobian, its node blocks reversed in rows and columns, within
    # 4 n eps max|J|.  L~'s v-derivatives are backward quotients where L's
    # are forward ones, so with L~ the Jacobians agree within 4 FD_NOISE
    # max|J|, the noise of one forward quotient
    grid = fv.make_grid(0.0, 1.0, n)
    lag, mirrored = reflection_pair(problem, grid, d)
    q = random_trajectory(np.random.default_rng(10 * n + d), grid, dim=d)
    reflected = fv.Trajectory(grid, q.values[::-1])
    eps = np.finfo(float).eps
    jac_rtol = 4 * n * eps if lag is mirrored else 4 * FD_NOISE
    for alpha in (0.3, 0.8, 1.0) if family in FRACTIONAL else (None,):
        pairs = [(SchemeKind(family, fv.PLUS, alpha), lag, q),
                 (SchemeKind(family, fv.MINUS, alpha), mirrored, reflected)]
        plus, minus = (assemble_residual(*pair) for pair in pairs)
        jplus, jminus = (jacobian(*pair) for pair in pairs)
        assert list(plus.indices) == [n - k for k in reversed(minus.indices)]
        assert jplus.shape == jminus.shape
        if alpha in (None, 1.0):
            assert plus.values.tobytes() == minus.values[::-1].tobytes()
            if lag is mirrored:
                assert jplus.tobytes() == jminus[::-1, ::-1].tobytes()
                continue
            jplus, jminus = dense_from_bands(jplus), dense_from_bands(jminus)
        else:
            np.testing.assert_allclose(plus.values, minus.values[::-1], rtol=0,
                                       atol=n * eps * np.max(np.abs(plus.values)))
        blocks = jminus.reshape(n - 1, d, n - 1, d)[::-1, :, ::-1].reshape(jminus.shape)
        np.testing.assert_allclose(jplus, blocks, rtol=0, atol=jac_rtol * np.max(np.abs(jplus)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("problem", ["harmonic", "pendulum", "coupled"])
@pytest.mark.parametrize("family", list(SchemeFamily))
def test_sigma_plus_solve_is_the_reflected_sigma_minus_solve(family, problem, n, d):
    # the sigma - problem of L~ with swapped boundary values solves for the
    # reversed sigma + solution.  Each solve stops with its residual within
    # tol, and the reflected sigma - residual is the sigma + one (up to
    # rounding far below tol), so to first order the two solutions differ
    # by at most |J^-1| (tol + tol), with J the sigma + Jacobian at its
    # solution.  Where one solve fails, the other fails too
    grid = fv.make_grid(0.0, 1.0, n)
    lag, mirrored = reflection_pair(problem, grid, d)
    qa, qb = np.linspace(0.3, 0.5, d), np.linspace(-0.7, 0.2, d)
    config = fv.NewtonConfig(tol=1e-9)
    for alpha in (0.3, 0.8, 1.0) if family in FRACTIONAL else (None,):
        plus, minus = (fv.BVPProblem(grid, lag, SchemeKind(family, fv.PLUS, alpha), qa, qb),
                       fv.BVPProblem(grid, mirrored, SchemeKind(family, fv.MINUS, alpha), qb, qa))
        try:
            qplus, _ = fv.solve_bvp_newton(plus, config=config)
        except fv.NewtonConvergenceError:
            with pytest.raises(fv.NewtonConvergenceError):
                fv.solve_bvp_newton(minus, config=config)
            continue
        qminus, _ = fv.solve_bvp_newton(minus, config=config)
        jac = jacobian(plus.scheme, lag, qplus)
        if jac.ndim == 4:
            jac = dense_from_bands(jac)
        bound = 2 * config.tol * np.max(np.sum(np.abs(np.linalg.inv(jac)), axis=1))
        assert np.max(np.abs(qplus.values - qminus.values[::-1])) <= bound
