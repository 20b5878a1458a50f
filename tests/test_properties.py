"""Property tests of the identities the schemes rest on, over random
(n, d, alpha, sigma): discrete integration by parts, direct-vs-variational
coherence of the asymmetric and GL embeddings, and alpha = 1 reducing the
fractional functional and gradient to the classical ones.  The last two
properties check the classical Newton Jacobian's bands against finite
differences, the solver's array path against the public assemblers, and
the Gram-matrix kinetic block of a mechanical fractional Jacobian against
the per-node product.

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fracvi as fv
from fracvi import schemes
from fracvi.schemes import SchemeFamily, SchemeKind, assemble_residual, classical_jacobian
from fracvi.schemes import fractional_jacobian
from fracvi.solver import BVPProblem, _bvp_functions
from oracles import column_fd_jacobian, coupled_lagrangian, dense_from_bands, interior_residual

PROPERTY = settings(derandomize=True, deadline=None, database=None)

sigmas = st.sampled_from([fv.PLUS, fv.MINUS])
alphas = st.floats(0.05, 1.0)
lagrangians = st.sampled_from(["harmonic", "pendulum", "coupled"])
mechanical = st.sampled_from(["free", "harmonic", "pendulum"])
fractional_families = st.sampled_from(
    [SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.VARIATIONAL_FRACTIONAL]
)


classical_families = st.sampled_from(
    [SchemeFamily.DIRECT_CLASSICAL, SchemeFamily.VARIATIONAL_CLASSICAL, SchemeFamily.ASYMMETRIC_DIRECT]
)


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
    assert fv.discrete_functional_fractional(
        lag, q, sigma, 1.0
    ) == fv.discrete_functional_classical(lag, q, sigma)
    np.testing.assert_array_equal(
        fv.functional_gradient(lag, q, sigma, 1.0).values,
        fv.functional_gradient(lag, q, sigma).values,
    )


@PROPERTY
@given(trajectories(max_n=64), classical_families, sigmas)
def test_classical_jacobian_matches_finite_differences(qs, family, sigma):
    [q] = qs
    n, d = q.grid.n, q.dim
    assume(family is not SchemeFamily.DIRECT_CLASSICAL or n >= 3)
    kind = SchemeKind(family, sigma)
    lag = coupled_lagrangian(d)
    fun = interior_residual(kind, lag, q.grid, q.values[:1], q.values[-1:])
    x = q.values[1:-1].ravel()
    fd = column_fd_jacobian(fun, x, fun(x))
    bands = classical_jacobian(kind, lag, q)
    assert not bands[0, 0].any() and not bands[2, -1].any()
    assert np.max(np.abs(dense_from_bands(bands) - fd)) <= 1e-6 * np.max(np.abs(fd))


@PROPERTY
@given(trajectories(max_n=48), st.sampled_from(list(SchemeFamily)), sigmas, alphas, lagrangians)
def test_solver_array_path_is_the_public_assembly(qs, family, sigma, alpha, name):
    [q] = qs
    assume(family is not SchemeFamily.DIRECT_CLASSICAL or q.grid.n >= 3)
    fractional = family in (SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.VARIATIONAL_FRACTIONAL)
    kind = SchemeKind(family, sigma, alpha if fractional else None)
    lag = lagrangian(name, q.dim)
    residual, jacobian, _ = _bvp_functions(BVPProblem(q.grid, lag, kind, q.values[0], q.values[-1]))
    x = q.values[1:-1].ravel()
    jac = (fractional_jacobian if fractional else classical_jacobian)(kind, lag, q)
    # the Jacobian first: the array path must not depend on its last residual
    assert jacobian(residual, x, None).tobytes() == jac.tobytes()
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
        gram = fractional_jacobian(kind, lag, q)
        patch.setattr(schemes, "_uniform_kinetic", lambda hvx, hvv: None)
        product = fractional_jacobian(kind, lag, q)
    assert len(taken) == 1 and taken[0] is not None
    # rounding moves the kinetic block, which the potential's diagonal can
    # cancel: measure against the kinetic block alone, the free particle's
    kinetic = fractional_jacobian(kind, lagrangian("free", q.dim), q)
    assert np.max(np.abs(gram - product)) <= 1e-9 * np.max(np.abs(kinetic))
