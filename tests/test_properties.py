"""Property tests of the identities the schemes rest on, over random
(n, d, alpha, sigma): discrete integration by parts, direct-vs-variational
coherence of the asymmetric and GL embeddings, and alpha = 1 reducing the
fractional functional and gradient to the classical ones.  Three more
properties check every family's Newton Jacobian against finite
differences, the solver's array path against the public assemblers, and
the Gram-matrix kinetic block of a mechanical fractional Jacobian against
the per-node product.  The last one solves each coherent embedding by
both of its routes and asks for the same bytes.

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fracvi as fv
from fracvi import schemes
from fracvi.schemes import SchemeFamily, SchemeKind, assemble_residual, jacobian
from fracvi.solver import BVPProblem, NewtonConfig, NewtonConvergenceError, _bvp_functions
from fracvi.solver import solve_bvp_newton
from oracles import column_fd_jacobian, coupled_lagrangian, dense_from_bands, interior_residual

PROPERTY = settings(derandomize=True, deadline=None, database=None)

sigmas = st.sampled_from([fv.PLUS, fv.MINUS])
alphas = st.floats(0.05, 1.0)
lagrangians = st.sampled_from(["harmonic", "pendulum", "coupled"])
mechanical = st.sampled_from(["free", "harmonic", "pendulum"])
FRACTIONAL = (SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.VARIATIONAL_FRACTIONAL)
fractional_families = st.sampled_from(FRACTIONAL)
families = st.sampled_from(list(SchemeFamily))


@st.composite
def trajectories(draw, count=1, min_n=2, max_n=40):
    """``count`` trajectories on one random grid, values in [-2, 2]."""
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, 3))
    a = draw(st.floats(-1.0, 1.0))
    grid = fv.make_grid(a, a + draw(st.floats(0.5, 3.0)), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [fv.Trajectory(grid, rng.uniform(-2.0, 2.0, (n + 1, d))) for _ in range(count)]


def lagrangian(name, dim):
    if name == "coupled":
        return coupled_lagrangian(dim)
    return fv.builtin_problem(name, omega=1.3, dim=dim)


def ibp_tolerance(f, g, alpha):
    # each side sums n*d products of an n-term difference with a value
    n, d = f.grid.n, f.dim
    size = np.max(np.abs(f.values)) * np.max(np.abs(g.values)) * f.grid.h ** -alpha
    return 8.0 * np.finfo(float).eps * n * n * d * size


@PROPERTY
@given(trajectories(count=2))
def test_classical_integration_by_parts(pair):
    f, g = pair
    lhs, rhs = fv.check_discrete_ibp(f, g)
    assert abs(lhs - rhs) <= ibp_tolerance(f, g, 1.0)


@PROPERTY
@given(trajectories(count=2), alphas)
def test_fractional_integration_by_parts(pair, alpha):
    f, g = pair
    vals = np.array(f.values)
    vals[[0, -1]] = 0.0
    f = fv.Trajectory(f.grid, vals)
    lhs, rhs = fv.check_discrete_frac_ibp(f, g, alpha)
    assert abs(lhs - rhs) <= ibp_tolerance(f, g, alpha)


@PROPERTY
@given(trajectories(min_n=3), sigmas, lagrangians)
def test_asymmetric_embedding_is_coherent(qs, sigma, name):
    [q] = qs
    report = fv.coherence_report(lagrangian(name, q.dim), q, sigma, kind="asymmetric")
    assert report.coherent, report.text()


@PROPERTY
@given(trajectories(min_n=3), sigmas, alphas, lagrangians)
def test_gl_embedding_is_coherent(qs, sigma, alpha, name):
    [q] = qs
    report = fv.coherence_report(lagrangian(name, q.dim), q, sigma, alpha=alpha)
    assert report.coherent, report.text()


@PROPERTY
@given(trajectories(), sigmas, lagrangians)
def test_alpha_one_reduces_to_classical(qs, sigma, name):
    [q] = qs
    lag = lagrangian(name, q.dim)
    assert fv.discrete_functional(lag, q, sigma, 1.0) == fv.discrete_functional(lag, q, sigma)
    np.testing.assert_array_equal(
        fv.functional_gradient(lag, q, sigma, 1.0).values,
        fv.functional_gradient(lag, q, sigma).values,
    )


@PROPERTY
@given(st.data(), families, sigmas, alphas)
def test_jacobian_matches_finite_differences(data, family, sigma, alpha):
    # a fractional residual couples every node, so each of the oracle's
    # n*d calls costs O(n^2 d): keep its n small
    fractional = family in FRACTIONAL
    [q] = data.draw(trajectories(max_n=24 if fractional else 64))
    n, d = q.grid.n, q.dim
    assume(family is not SchemeFamily.DIRECT_CLASSICAL or n >= 3)
    kind = SchemeKind(family, sigma, alpha if fractional else None)
    lag = coupled_lagrangian(d)
    fun = interior_residual(kind, lag, q.grid, q.values[:1], q.values[-1:])
    x = q.values[1:-1].ravel()
    fd = column_fd_jacobian(fun, x, fun(x))
    jac = jacobian(kind, lag, q)
    if not fractional:
        assert not jac[0, 0].any() and not jac[2, -1].any()
        jac = dense_from_bands(jac)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))


@PROPERTY
@given(trajectories(max_n=48), families, sigmas, alphas, lagrangians)
def test_solver_array_path_is_the_public_assembly(qs, family, sigma, alpha, name):
    [q] = qs
    assume(family is not SchemeFamily.DIRECT_CLASSICAL or q.grid.n >= 3)
    kind = SchemeKind(family, sigma, alpha if family in FRACTIONAL else None)
    lag = lagrangian(name, q.dim)
    residual, array_jacobian, _ = _bvp_functions(
        BVPProblem(q.grid, lag, kind, q.values[0], q.values[-1])
    )
    x = q.values[1:-1].ravel()
    # the Jacobian first: the array path must not depend on its last residual
    assert array_jacobian(residual, x, None).tobytes() == jacobian(kind, lag, q).tobytes()
    assert residual(x).tobytes() == assemble_residual(kind, lag, q).values.tobytes()


@PROPERTY
@given(trajectories(max_n=130), fractional_families, sigmas, alphas, mechanical)
def test_mechanical_kinetic_block_is_the_gram_product(qs, family, sigma, alpha, name):
    [q] = qs
    kind = SchemeKind(family, sigma, alpha)
    lag = lagrangian(name, q.dim)
    uniform = schemes._uniform_kinetic
    taken = []

    def recorded(hvx, hvv):
        taken.append(uniform(hvx, hvv))
        return taken[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schemes, "_uniform_kinetic", recorded)
        gram = jacobian(kind, lag, q)
        patch.setattr(schemes, "_uniform_kinetic", lambda hvx, hvv: None)
        product = jacobian(kind, lag, q)
    assert len(taken) == 1 and taken[0] is not None
    # rounding moves the kinetic block, which the potential's diagonal can
    # cancel: measure against the kinetic block alone, the free particle's
    kinetic = jacobian(kind, lagrangian("free", q.dim), q)
    assert np.max(np.abs(gram - product)) <= 1e-9 * np.max(np.abs(kinetic))


def solve_outcome(problem):
    """A solve's result: the trajectory or the last iterate and the history
    as bytes, the failure message and the counters."""
    try:
        traj, diag = solve_bvp_newton(problem, config=NewtonConfig(tol=1e-10))
        last, message = traj.values, ""
    except NewtonConvergenceError as exc:
        last, message, diag = exc.last.values, str(exc), exc.diagnostics
    history = np.array(diag.records, dtype=float).tobytes()
    counters = (diag.converged, diag.residual_evals, diag.jacobian_builds, diag.backtracks)
    return last.tobytes(), message, history, counters


@settings(PROPERTY, max_examples=50)  # each example makes four solves, n up to 256
@given(st.data(), lagrangians, sigmas, alphas)
def test_coherent_embeddings_solve_identically(data, name, sigma, alpha):
    # the direct and variational routes of the asymmetric and GL embeddings
    # are one scheme, so Newton takes the same steps on both, bit for bit
    n = data.draw(st.integers(3, 256))
    d = data.draw(st.integers(1, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = data.draw(st.floats(-1.0, 1.0))
    grid = fv.make_grid(a, a + data.draw(st.floats(0.5, 3.0)), n)
    lag = lagrangian(name, d)
    qa, qb = rng.uniform(-1.0, 1.0, (2, d))
    pairs = (
        (SchemeFamily.VARIATIONAL_FRACTIONAL, SchemeFamily.DIRECT_FRACTIONAL, alpha),
        (SchemeFamily.VARIATIONAL_CLASSICAL, SchemeFamily.ASYMMETRIC_DIRECT, None),
    )
    for variational, direct, order in pairs:
        outcomes = [
            solve_outcome(BVPProblem(grid, lag, SchemeKind(family, sigma, order), qa, qb))
            for family in (variational, direct)
        ]
        assert outcomes[0] == outcomes[1], (variational.value, n, d)
