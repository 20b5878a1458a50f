"""Grunwald-Letnikov (GL) weights and one-sided operators, the classical
pair among them as the order alpha = 1, the one-sided rectangle rule,
both discrete integration-by-parts identities, and a closed-form
Riemann-Liouville oracle on monomials.

The signed binomial weights are w_r = (-1)^r C(alpha, r), generated by the
multiplicative recurrence w_r = w_{r-1} * (r - 1 - alpha) / r.  For
0 < alpha < 1 they satisfy w_0 = 1, w_r < 0 for r >= 1, and positive,
strictly decreasing partial sums; at alpha = 1 they are 1, -1, 0, ..., so
``delta_plus``, ``delta_minus``, ``discrete_velocity`` and ``seq_delta``
are the GL entries at alpha = 1, and -sigma * delta_sigma is the discrete
d/dt.  Operators are dense O(n^2) Toeplitz arrays from one builder,
``_kernel(alpha, n, side, adjoint)``, which takes one C-order copy of a
strided view over one zero-padded weight vector: the kernel K, where the
left operator reads w_{k-j} and the right one w_{j-k}, or, for the
variational gradient and its Jacobian, the adjoint K[:, 1:n]^T, over the
same weights.  Every kernel product goes through :func:`_operator`, which
binds one of them; at alpha = 1 it binds :func:`_difference`, the
package's one one-sided difference: O(n), no kernel built.  Both act
along the node axis, the next to last, so one shape contract holds at
every order: (..., n + 1, d) in, (..., n, d) out.  On a grid,
:func:`_velocity` is the one place a side's product meets its signed
scale: v = -sigma h^-alpha K Q.  So delta^alpha_minus is the MINUS
velocity and delta^alpha_plus minus the PLUS one (negation rounds
symmetrically, so only a NaN's sign bit can differ from scaling the
product), and both sides of the integration by parts read it.  The two integration-by-parts checks share one batch
core, :func:`_ibp_sides`, bound once per grid: ``fracvi ibp`` hands it
stacks of trials, and a pair check is a batch of one.  A stack keeps its
trial axis outermost, so ``K @ stack`` makes the one BLAS call per trial
that a single pair makes and rounds as it does.  :func:`_windowed` scales
its own product over a sequence's window.  Lifetime: a solve or an
assembly binds the operators it reads when it starts and holds them
until it ends, so nothing it reads is rebuilt while it runs; past that,
the builder keeps only its two most recently built arrays, kernels and
adjoints alike.  So retained memory is
at most two arrays, and an array of any size is built once per assembly.
No fast convolution is attempted at desk scale.  Fractional orders must
be finite and positive, their weights finite, and the scale h^-alpha a
finite positive float.  Every core binds its GL operator with its signed
scale, the scale first, so an order that overflows both is refused for
the scale, naming h; each product is multiplied by that scale once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grids import (
    MINUS,
    PLUS,
    DomainError,
    Grid,
    ResidualField,
    ShiftedSequence,
    Trajectory,
    _freeze,
    check_integer,
    check_sigma,
)


def gl_coefficients(alpha: float, n: int) -> np.ndarray:
    """w_0 .. w_n, read-only, by the multiplicative recurrence, not factorials."""
    alpha = _check_alpha(alpha)
    n = check_integer(n, "weight count")
    if n < 0:
        raise DomainError(f"weight count must be nonnegative, got {n}")
    return _weights(alpha, n)


def _weights(alpha: float, n: int) -> np.ndarray:
    w = np.ones(n + 1)
    r = np.arange(1, n + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        w[1:] = np.cumprod((r - 1.0 - alpha) / r)
    if not np.isfinite(w).all():
        raise DomainError(f"GL weights overflow a float at alpha = {alpha!r}, n = {n}")
    return _freeze(w)


@functools.lru_cache(maxsize=2)
def _kernel(alpha: float, n: int, side: int, adjoint: bool) -> np.ndarray:
    """The GL kernel K of one side over positions 0..n, or with ``adjoint``
    the contiguous K[:, 1:n].T, (n - 1, n), the velocity map's adjoint onto
    the interior nodes; read-only.  MINUS: rows k = 1..n, entry w_{k-j}.
    PLUS: rows k = 0..n-1, entry w_{j-k}.  Entries with a negative weight
    index are zero.  Both take w_0..w_n from :func:`_weights`."""
    w = _weights(alpha, n)
    # over [0]*n + w_0..w_n, PLUS row k starts at w_{-k} and steps forwards,
    # MINUS row k at w_k and steps backwards; adjoint row i, the kernel's
    # column i + 1, starts one step further and steps the other way
    padded = np.concatenate([np.zeros(n), w])
    step = side * padded.itemsize
    start = (n + (side == MINUS)) * padded.itemsize
    if adjoint:
        return _freeze(np.ndarray((n - 1, n), float, padded, start + step, (step, -step)))
    return _freeze(np.ndarray((n, n + 1), float, padded, start, (-step, step)))


def _difference(v: np.ndarray, side: int) -> np.ndarray:
    """The unscaled one-sided difference along the node axis, the next to
    last: v_k - v_{k+1} for ``side=PLUS``, v_k - v_{k-1} for MINUS, one
    node fewer than ``v``."""
    if side == PLUS:
        return v[..., :-1, :] - v[..., 1:, :]
    return v[..., 1:, :] - v[..., :-1, :]


def _operator(alpha: float, n: int, side: int, adjoint: bool):
    """The unscaled GL product of ``side`` over positions 0..n with its
    array bound: ``y -> K @ y``, (..., n + 1, d) in and (..., n, d) out, or
    with ``adjoint`` ``y -> K[:, 1:n].T @ y``, (..., n, d) in and
    (..., n - 1, d) out, by the contiguous adjoint, for the variational
    gradient and its dense Jacobian alike.  At every order a stack of
    trials keeps its leading axes.  At alpha = 1 it is the two-point
    difference of ``side`` (adjoint: of ``-side``), and builds nothing."""
    if alpha == 1:
        return functools.partial(_difference, side=-side if adjoint else side)
    return _kernel(alpha, n, side, adjoint).__matmul__


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"fractional order must be finite and positive, got {alpha}")
    return alpha


def _unit_order(alpha: float | None) -> float:
    """Orders of the fractional functionals, the scheme kinds and the
    closed form, checked to lie in (0, 1]; ``None`` (classical) is 1."""
    alpha = 1.0 if alpha is None else float(alpha)
    if not 0 < alpha <= 1:
        raise DomainError(f"fractional order must lie in (0, 1], got {alpha}")
    return alpha


def _scale(h: float, alpha: float) -> float:
    """``1/(h**alpha)``, so that alpha = 1 reproduces the classical 1/h
    bitwise; refused unless it is finite and positive, as it is not when
    ``h**alpha`` underflows, overflows or has no finite reciprocal."""
    try:
        scale = 1.0 / (h ** alpha)
    except (OverflowError, ZeroDivisionError):
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise DomainError(
            f"GL scale h^-alpha leaves the float range at h = {h!r}, alpha = {alpha!r}"
        )
    return scale


def delta_alpha_minus(q: Trajectory, alpha: float) -> ShiftedSequence:
    """Left GL operator: h^-alpha sum_{r=0..k} w_r Q_{k-r}, k in {1, .., n};
    the side-MINUS velocity, as v = +delta^alpha_minus Q there."""
    return discrete_velocity_alpha(q, MINUS, alpha)


def delta_alpha_plus(q: Trajectory, alpha: float) -> ShiftedSequence:
    """Right GL operator: h^-alpha sum_{r=0..n-k} w_r Q_{k+r}, k in {0, .., n-1};
    minus the side-PLUS velocity, as v = -delta^alpha_plus Q there.  Only a
    NaN's sign bit can differ from the scale times the product."""
    alpha = _check_alpha(alpha)
    return ShiftedSequence(q.grid, PLUS, -_velocity(alpha, PLUS, q.grid)(q.values))


def delta_minus(q: Trajectory) -> ShiftedSequence:
    """Backward difference (Q_k - Q_{k-1})/h on {1, .., n}: left GL at alpha = 1."""
    return delta_alpha_minus(q, 1.0)


def delta_plus(q: Trajectory) -> ShiftedSequence:
    """Forward difference (Q_k - Q_{k+1})/h on {0, .., n-1}: right GL at alpha = 1."""
    return delta_alpha_plus(q, 1.0)


def discrete_velocity_alpha(q: Trajectory, sigma: int, alpha: float) -> ShiftedSequence:
    """The fractional derivative analogue (-sigma * delta^alpha_sigma Q)."""
    check_sigma(sigma)
    alpha = _check_alpha(alpha)
    return ShiftedSequence(q.grid, sigma, _velocity(alpha, sigma, q.grid)(q.values))


def discrete_velocity(q: Trajectory, sigma: int) -> ShiftedSequence:
    """The derivative analogue (-sigma * delta_sigma Q): the GL one at alpha = 1."""
    return discrete_velocity_alpha(q, sigma, 1.0)


def _velocity(alpha: float, sigma: int, grid: Grid):
    """Array core of :func:`discrete_velocity_alpha` on ``grid``, its
    signed scale -sigma h^-alpha and its kernel bound: (..., n+1, d) in,
    (..., n, d) out, at every order."""
    factor, apply = -sigma * _scale(grid.h, alpha), _operator(alpha, grid.n, sigma, False)
    return lambda values: apply(values) * factor


def _windowed(s: ShiftedSequence, side: int, alpha: float) -> ResidualField:
    """The GL operator of ``side`` applied to a windowed sequence, on the
    indices where its sum has every term: PLUS (entries k, k+1, ...) drops
    the window's last index, MINUS (entries k, k-1, ...) its first."""
    vals = _scale(s.grid.h, alpha) * _operator(alpha, len(s.values) - 1, side, False)(s.values)
    return ResidualField(s.grid, s.k_start + (side == MINUS), vals)


def seq_delta(s: ShiftedSequence, side: int) -> ResidualField:
    """Apply delta_side, the GL operator of ``side`` at alpha = 1, to a
    windowed sequence."""
    return _windowed(s, check_sigma(side), 1.0)


def frac_seq_minus(s: ShiftedSequence, alpha: float) -> ResidualField:
    """Left GL operator applied to a forward-window sequence.

    The defining sum at index k reaches down to position 0, so the input
    must cover {0, .., n-1}; output window {1, .., n-1}.
    """
    alpha = _check_alpha(alpha)
    if s.side != PLUS:
        raise DomainError("left GL application needs a forward-window sequence")
    return _windowed(s, MINUS, alpha)


def frac_seq_plus(s: ShiftedSequence, alpha: float) -> ResidualField:
    """Right GL operator applied to a backward-window sequence.

    The defining sum at index k reaches up to position n, so the input must
    cover {1, .., n}; output window {1, .., n-1}.
    """
    alpha = _check_alpha(alpha)
    if s.side != MINUS:
        raise DomainError("right GL application needs a backward-window sequence")
    return _windowed(s, PLUS, alpha)


def gauss_quadrature(s: ShiftedSequence):
    """One-sided rectangle rule: h times the sum of entries over I_sigma.

    Returns a float for dim-1 sequences, a (d,) array otherwise.
    """
    total = np.array([math.fsum(s.values[:, c]) for c in range(s.dim)])
    out = s.grid.h * total
    return float(out[0]) if s.dim == 1 else out


def _ibp_sides(grid: Grid, alpha: float | None):
    """The batch core of both integration-by-parts checks on ``grid``: binds
    each side's velocity once, its scale first, and returns ``sides(f, g)``,
    which takes F and G stacked as (trials, n + 1, d) arrays and returns
    each trial's (lhs, rhs), each one exactly rounded sum; ``alpha=None``
    is :func:`check_discrete_ibp`, alpha = 1 and the boundary term.
    ``alpha`` comes checked.  Each GL product is a side's velocity, negated
    for PLUS, as :func:`delta_alpha_minus` and :func:`delta_alpha_plus`
    compute it.  The trial axis stays outermost: ``K @ stack`` makes the
    BLAS call a single trial makes, where one wide (n + 1, trials * d)
    product would round differently.  Refused unless every trial's sides
    are finite: at a tiny h a term or a partial sum overflows."""
    order = 1.0 if alpha is None else alpha
    minus, plus = _velocity(order, MINUS, grid), _velocity(order, PLUS, grid)
    at = f"h = {grid.h!r}" + ("" if alpha is None else f", alpha = {alpha!r}")

    def sides(f: np.ndarray, g: np.ndarray) -> list[tuple[float, float]]:
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = (minus(f) * g[:, 1:]).reshape(len(f), -1)
            rhs = (f[:, :-1] * -plus(g)).reshape(len(f), -1)
            if alpha is None:  # F_n.G_n / h and -F_0.G_0 / h, each dot one BLAS call
                ends = (f[:, [-1, 0], None] @ g[:, [-1, 0], :, None]).reshape(len(f), 2)
                rhs = np.hstack([rhs, ends * (np.array([1.0, -1.0]) / grid.h)])
        try:
            # a memoryview hands fsum one float at a time, with no list of them
            out = [(math.fsum(memoryview(l)), math.fsum(memoryview(r))) for l, r in zip(lhs, rhs)]
            if all(math.isfinite(x) for pair in out for x in pair):
                return out
        except (OverflowError, ValueError):  # a partial sum overflows, or inf - inf
            pass
        raise DomainError(f"integration-by-parts sums are not finite floats at {at}")

    return sides


def _ibp_pair(f: Trajectory, g: Trajectory, alpha: float | None) -> tuple[float, float]:
    """:func:`_ibp_sides` on one (F, G) pair, a batch of one.  Refused, in
    this order, unless F and G share one grid and one dimension, and unless
    (alpha given) F or G is zero at both ends; then as the core refuses."""
    if f.grid != g.grid:
        raise DomainError("integration by parts requires a common grid")
    if f.dim != g.dim:
        raise DomainError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if alpha is not None and f.values[[0, -1]].any() and g.values[[0, -1]].any():
        raise DomainError("hypothesis violated: need F_0 = F_n = 0 or G_0 = G_n = 0")
    return _ibp_sides(f.grid, alpha)(f.values[None], g.values[None])[0]


def check_discrete_ibp(f: Trajectory, g: Trajectory) -> tuple[float, float]:
    """Evaluate both sides of the discrete integration-by-parts identity.

    lhs = sum_{k=1..n} (delta_minus F)_k . G_k
    rhs = sum_{k=0..n-1} F_k . (delta_plus G)_k + (F_n.G_n - F_0.G_0)/h

    Both sides are returned so callers can report the gap magnitude.  The
    pair is a batch of one trial of the core ``fracvi ibp`` runs, so the
    command and this check share one arithmetic path.
    """
    return _ibp_pair(f, g, None)


def check_discrete_frac_ibp(f: Trajectory, g: Trajectory, alpha: float) -> tuple[float, float]:
    """Evaluate both sides of the discrete fractional integration by parts.

    lhs = sum_{k=1..n} (delta^alpha_minus F)_k . G_k
    rhs = sum_{k=0..n-1} F_k . (delta^alpha_plus G)_k

    Requires F_0 = F_n = 0 or G_0 = G_n = 0 (no boundary term exists).  The
    order is refused first, before any other check; the pair is then a
    batch of one trial of the core ``fracvi ibp`` runs.
    """
    return _ibp_pair(f, g, _check_alpha(alpha))


def rl_monomial_derivative(beta: float, alpha: float | None, s: float) -> float:
    """Left fractional derivative of (t - a)^beta at offset s = t - a.

    Closed form Gamma(beta+1)/Gamma(beta+1-alpha) * s^(beta-alpha), valid
    for finite beta > -1, finite s > 0 and 0 < alpha <= 1 (alpha = 1, or
    None, is the classical case).  Refused in this order: the order, beta
    <= -1, s <= 0, a non-finite beta or s, and beta + 1 - alpha < 0.
    When beta + 1 - alpha = 0 the reciprocal Gamma vanishes at the pole and
    the derivative is 0.
    """
    beta = float(beta)
    alpha = _unit_order(alpha)
    s = float(s)
    if beta <= -1:
        raise DomainError(f"monomial exponent must exceed -1, got {beta}")
    if s <= 0:
        raise DomainError(f"offset s = t - a must be positive, got {s}")
    if not (math.isfinite(beta) and math.isfinite(s)):
        raise DomainError(f"beta and s must be finite, got beta = {beta}, s = {s}")
    tail = beta + 1.0 - alpha
    if tail == 0.0:
        return 0.0
    if tail < 0:
        raise DomainError(
            f"beta + 1 - alpha = {tail} < 0 is outside the oracle's domain"
        )
    try:
        return math.gamma(beta + 1.0) / math.gamma(tail) * s ** (beta - alpha)
    except OverflowError:
        raise DomainError(
            f"Gamma(beta + 1) or s^(beta - alpha) overflows a float at beta = {beta}, s = {s}"
        ) from None
