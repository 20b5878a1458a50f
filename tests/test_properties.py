"""Property tests of the identities the schemes rest on, over random
(n, d, alpha, sigma): discrete integration by parts, direct-vs-variational
coherence of the asymmetric and GL embeddings, and alpha = 1 reducing the
fractional functional and gradient to the classical ones.  The classical
residuals equal the former stencils of ``oracles.py`` bit for bit: the
direct classical one the symmetric stencil, the coherent ones the
asymmetric stencil.  Three more properties check every family's Newton Jacobian
against finite differences, the solver's array path against the public
assemblers, and the Gram-matrix kinetic block of a mechanical fractional
Jacobian against the per-node product.  The last two solve each coherent
embedding by both of its routes, and each fractional family at alpha = 1
as its classical twin, and ask for the same bytes.  Fractional coherence
rests on prefix-consistent weights: the routes stay one scheme for the GL
weights times any fixed positive sequence, and part for weights drawn
afresh per kernel size.  The symmetric routes' solutions differ at first
order in h.  The march takes the claim to trajectories: each alpha = 1
kind, marched from the first two nodes of its boundary-value solution,
retraces it, and the coherent kinds march bit for bit alike.  The drawn
Lagrangians include ones whose Lv returns a Fortran-ordered, flipped or
broadcast array, and the coherent routes must still agree bit for bit;
the solve property checks every layout on each of its draws.

Examples are derandomized, yet a test does not draw the same cases in
every pytest run: Hypothesis draws some of its numbers from literals it
finds in every imported module of the project, so which test modules
pytest has imported changes what it draws.  Counterexamples that once failed are
therefore pinned, with ``@example`` or, for a test that draws with
``st.data()``, as a parametrized case.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fracvi as fv
from fracvi import fracops, schemes
from fracvi.schemes import VERDICT_NOT_COHERENT, SchemeFamily, SchemeKind, assemble_residual
from fracvi.schemes import jacobian
from fracvi.solver import BVPProblem, NewtonConfig, NewtonConvergenceError, _bvp_functions
from fracvi.solver import march, solve_bvp_newton
from oracles import asymmetric_residual, column_fd_jacobian, coupled_lagrangian, dense_from_bands
from oracles import LAYOUTS, interior_residual, relaid, symmetric_residual

PROPERTY = settings(derandomize=True, deadline=None, database=None)

sigmas = st.sampled_from([fv.PLUS, fv.MINUS])
alphas = st.floats(0.05, 1.0)
#: "<problem>/<layout>" returns Lv in that layout of ``oracles.LAYOUTS``
lagrangians = st.sampled_from([
    f"{name}{layout}" for layout in ("", "/F", "/flipped", "/broadcast")
    for name in ("harmonic", "pendulum", "coupled")
])
mechanical = st.sampled_from(["free", "harmonic", "pendulum"])
FRACTIONAL = (SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.VARIATIONAL_FRACTIONAL)
CLASSICAL = (
    SchemeFamily.DIRECT_CLASSICAL,
    SchemeFamily.VARIATIONAL_CLASSICAL,
    SchemeFamily.ASYMMETRIC_DIRECT,
)
fractional_families = st.sampled_from(FRACTIONAL)
families = st.sampled_from(list(SchemeFamily))
#: (former classical stencil, the families that must equal it bit for bit)
classical_stencils = st.sampled_from([
    (symmetric_residual, (SchemeFamily.DIRECT_CLASSICAL,)),
    (asymmetric_residual, (SchemeFamily.ASYMMETRIC_DIRECT, SchemeFamily.VARIATIONAL_CLASSICAL)),
])


def seeded(n, d, a, length, seed, count=1):
    """``count`` trajectories on the grid of n steps over [a, a + length],
    values in [-2, 2] from the generator of ``seed``."""
    grid = fv.make_grid(a, a + length, n)
    rng = np.random.default_rng(seed)
    return [fv.Trajectory(grid, rng.uniform(-2.0, 2.0, (n + 1, d))) for _ in range(count)]


@st.composite
def trajectories(draw, count=1, min_n=2, max_n=40):
    """``count`` trajectories on one random grid, values in [-2, 2]."""
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, 3))
    a = draw(st.floats(-1.0, 1.0))
    return seeded(n, d, a, draw(st.floats(0.5, 3.0)), draw(st.integers(0, 2**32 - 1)), count)


def lagrangian(name, dim):
    name, _, layout = name.partition("/")
    if name == "coupled":
        lag = coupled_lagrangian(dim)
    else:
        lag = fv.builtin_problem(name, omega=1.3, dim=dim)
    return relaid(lag, layout) if layout else lag


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
    assert report.gap == 0.0, report.text()


@PROPERTY
@given(trajectories(min_n=3), sigmas, alphas, lagrangians)
# gap 4.4e-16 when the direct route copied Lv to C order
@example(seeded(4, 1, 0.0, 1.0, 0), fv.PLUS, 0.5, "coupled/flipped")
def test_gl_embedding_is_coherent(qs, sigma, alpha, name):
    [q] = qs
    report = fv.coherence_report(lagrangian(name, q.dim), q, sigma, alpha=alpha)
    assert report.gap == 0.0, report.text()


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
@given(trajectories(), sigmas, lagrangians, classical_stencils)
def test_coherent_classical_residuals_are_the_asymmetric_stencil(qs, sigma, name, pair):
    # every classical kind is assembled by one of the two cores at alpha = 1;
    # the symmetric scheme is the direct core with a same-side outer operator
    [q] = qs
    stencil, families = pair
    assume(SchemeFamily.DIRECT_CLASSICAL not in families or q.grid.n >= 3)
    lag = lagrangian(name, q.dim)
    expected = stencil(lag, q, sigma).tobytes()
    for family in families:
        assert assemble_residual(SchemeKind(family, sigma), lag, q).values.tobytes() == expected


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
    if jac.ndim == 4:  # bands at alpha = 1, classical or fractional
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
    assume(alpha < 1.0)  # alpha = 1 takes bands, with no Gram matrix
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


def check_routes_solve_identically(name, sigma, alpha, n, d, seed, a, length):
    # the direct and variational routes of the asymmetric and GL embeddings
    # are one scheme, so Newton takes the same steps on both, bit for bit
    rng = np.random.default_rng(seed)
    grid = fv.make_grid(a, a + length, n)
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
        assert outcomes[0] == outcomes[1], (name, variational.value, n, d)


# each example makes four solves per layout, n up to 256
@settings(PROPERTY, max_examples=10)
@given(st.data(), st.sampled_from(["harmonic", "pendulum", "coupled"]), sigmas, alphas)
def test_coherent_embeddings_solve_identically(data, problem, sigma, alpha):
    n = data.draw(st.integers(3, 256))
    d = data.draw(st.integers(1, 2))
    seed = data.draw(st.integers(0, 2**32 - 1))
    a = data.draw(st.floats(-1.0, 1.0))
    length = data.draw(st.floats(0.5, 3.0))
    # every layout on every draw: a re-layout that parts the routes shows
    # on some layouts only
    for layout in ("", *LAYOUTS):
        check_routes_solve_identically(f"{problem}/{layout}", sigma, alpha, n, d, seed, a, length)


# the solves parted when the direct route copied Lv to C order
@pytest.mark.parametrize("name,sigma,alpha,n,d,seed,a,length", [
    ("harmonic/flipped", fv.PLUS, 0.875, 3, 1, 0, 0.0, 1.0),
])
def test_coherent_embeddings_solve_identically_on_pinned_cases(name, sigma, alpha, n, d, seed,
                                                                a, length):
    check_routes_solve_identically(name, sigma, alpha, n, d, seed, a, length)


@contextlib.contextmanager
def gl_weights(weights):
    """Every GL kernel built from ``weights(m)``, the m + 1 weights of a
    kernel over positions 0..m; no kernel or adjoint is held from before
    or kept for after."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fracops, "_weights", lambda alpha, m: weights(m))
        fracops._kernel.cache_clear()
        try:
            yield
        finally:
            fracops._kernel.cache_clear()


#: the weight draws: an order below 1, a seed and the grid size
weight_draws = (st.floats(0.05, 0.95), st.integers(0, 2**32 - 1), st.integers(4, 32))


@settings(PROPERTY, max_examples=100)
@given(*weight_draws, st.integers(1, 2), lagrangians)
@example(0.5, 0, 4, 1, "harmonic/flipped")  # gap 4.4e-16, as above
def test_coherence_rests_on_prefix_consistent_weights(alpha, seed, n, d, name):
    # the direct route builds its outer kernel over n - 1 positions and the
    # variational one the velocity kernel over n: they read one weight
    # sequence because a shorter kernel's weights are a prefix of a longer
    # one's, so the GL weights times any fixed positive sequence keep the
    # two routes one scheme, bit for bit
    rng = np.random.default_rng(seed)
    weights = fracops._weights(alpha, n) * rng.uniform(0.5, 1.5, n + 1)
    grid = fv.make_grid(0.0, 1.0, n)
    q = fv.Trajectory(grid, rng.uniform(-2.0, 2.0, (n + 1, d)))
    qa, qb = rng.uniform(-1.0, 1.0, (2, d))
    harmonic = lagrangian("harmonic", d)
    with gl_weights(lambda m: weights[: m + 1]):
        for sigma in (fv.MINUS, fv.PLUS):
            assert fv.coherence_report(lagrangian(name, d), q, sigma, alpha).gap == 0.0
            kinds = [SchemeKind(family, sigma, alpha) for family in FRACTIONAL]
            outcomes = [solve_outcome(BVPProblem(grid, harmonic, kind, qa, qb)) for kind in kinds]
            assert outcomes[0] == outcomes[1], sigma


@settings(PROPERTY, max_examples=25)
@given(*weight_draws)
def test_weights_drawn_per_size_are_not_coherent(alpha, seed, n):
    # the mutation the property above must catch: a fresh perturbation for
    # every kernel size gives the two routes different weights
    gl = fracops._weights

    def weights(m):
        return gl(alpha, m) * np.random.default_rng((seed, m)).uniform(0.5, 1.5, m + 1)

    values = np.random.default_rng(seed).uniform(-2.0, 2.0, n + 1)
    q = fv.Trajectory(fv.make_grid(0.0, 1.0, n), values)
    with gl_weights(weights):
        for sigma in (fv.MINUS, fv.PLUS):
            report = fv.coherence_report(lagrangian("harmonic", 1), q, sigma, alpha)
            assert report.verdict == VERDICT_NOT_COHERENT, (sigma, report.gap)


def test_symmetric_routes_differ_at_first_order():
    # the direct classical scheme is another scheme than the variational
    # one: their solutions differ by O(h), the direct scheme's order
    lag = fv.builtin_problem("harmonic", omega=1.5)
    config = NewtonConfig(tol=1e-9)
    gaps = []
    kinds = [SchemeKind(family, fv.MINUS)
             for family in (SchemeFamily.VARIATIONAL_CLASSICAL, SchemeFamily.DIRECT_CLASSICAL)]
    for n in (64, 256, 1024):
        grid = fv.make_grid(0.0, 1.0, n)
        vi, direct = [solve_bvp_newton(BVPProblem(grid, lag, kind, [0.0], [1.0]), config=config)[0]
                      for kind in kinds]
        gaps.append(float(np.max(np.abs(vi.values - direct.values))))
    orders = [math.log(coarse / fine) / math.log(4.0) for coarse, fine in zip(gaps, gaps[1:])]
    print(f"vi- vs direct-classical gaps {gaps}, orders {orders}")
    assert all(abs(order - 1.0) <= 0.1 for order in orders), (gaps, orders)


@pytest.mark.parametrize("name", ["harmonic", "pendulum", "coupled"])
@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
def test_alpha_one_solves_as_the_classical_scheme(sigma, name):
    # the GL embedding at alpha = 1 is the asymmetric one: each fractional
    # family solves as its classical twin, bit for bit
    pairs = (
        (SchemeFamily.VARIATIONAL_FRACTIONAL, SchemeFamily.VARIATIONAL_CLASSICAL),
        (SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.ASYMMETRIC_DIRECT),
    )
    rng = np.random.default_rng(65)
    for d in (1, 2):
        lag = lagrangian(name, d)
        for n in (2, 3, 64, 1024):
            grid = fv.make_grid(-0.2, 1.1, n)
            qa, qb = rng.uniform(-1.0, 1.0, (2, d))
            for fractional, classical in pairs:
                kinds = (SchemeKind(fractional, sigma, 1.0), SchemeKind(classical, sigma))
                outcomes = [solve_outcome(BVPProblem(grid, lag, kind, qa, qb)) for kind in kinds]
                assert outcomes[0] == outcomes[1], (fractional.value, d, n)


def march_outcome(kind, lag, grid, q0, q1, config):
    """A march's trajectory, and its values, history and counters as bytes
    and a tuple: two marches give equal ones iff they agree bit for bit."""
    traj, diag = march(kind, lag, grid, q0, q1, config)
    counters = (diag.converged, diag.residual_evals, diag.jacobian_builds, diag.backtracks)
    return traj, (traj.values.tobytes(), np.array(diag.records).tobytes(), counters)


@pytest.mark.parametrize("name", ["harmonic", "pendulum", "coupled"])
@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
def test_marches_reproduce_their_kinds_solves(sigma, name):
    # every alpha = 1 kind marches: started from the first two nodes of its
    # boundary-value solution, a march retraces that solution, so the step
    # rule reads each kind's row at the nodes the residual core does; the
    # coherent kinds are one scheme, so their marches agree bit for bit
    config = NewtonConfig(tol=1e-11)
    grid = fv.make_grid(0.0, 1.0, 64)
    rng = np.random.default_rng(26)
    for d in (1, 2):
        lag = lagrangian(name, d)
        qa, qb = rng.uniform(-1.0, 1.0, (2, d))
        outcomes = []
        for family in CLASSICAL:
            kind = SchemeKind(family, sigma)
            solved, _ = solve_bvp_newton(BVPProblem(grid, lag, kind, qa, qb), config=config)
            marched, outcome = march_outcome(kind, lag, grid, *solved.values[:2], config)
            assert np.max(np.abs(marched.values - solved.values)) <= 1e-10, (family.value, d)
            outcomes.append(outcome)
        assert outcomes[1] == outcomes[2], d  # vi-classical, asymmetric-direct


@pytest.mark.parametrize("sigma", [fv.MINUS, fv.PLUS])
def test_alpha_one_marches_as_the_classical_scheme(sigma):
    # each fractional family at alpha = 1 marches as its classical twin, bit
    # for bit; below 1 a row reaches every earlier node, and march refuses it
    pairs = (
        (SchemeFamily.VARIATIONAL_FRACTIONAL, SchemeFamily.VARIATIONAL_CLASSICAL),
        (SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.ASYMMETRIC_DIRECT),
    )
    grid = fv.make_grid(-0.2, 1.1, 64)
    config = NewtonConfig(tol=1e-11)
    for d in (1, 2):
        lag = lagrangian("coupled", d)
        q0, q1 = np.full(d, 0.3), np.full(d, 0.32)
        for fractional, classical in pairs:
            outcomes = [
                march_outcome(kind, lag, grid, q0, q1, config)[1]
                for kind in (SchemeKind(fractional, sigma, 1.0), SchemeKind(classical, sigma))
            ]
            assert outcomes[0] == outcomes[1], (fractional.value, d)
        kind = SchemeKind(SchemeFamily.VARIATIONAL_FRACTIONAL, sigma, 0.5)
        with pytest.raises(fv.DomainError, match=r"only alpha = 1 kinds march, got alpha = 0\.5"):
            march(kind, lag, grid, q0, q1, config)
