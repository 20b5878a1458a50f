"""Residual assemblers for the discrete Euler-Lagrange schemes, and the
coherence comparator between the direct-embedding and variational paths.

Two genuinely independent routes produce each scheme: direct embedding
substitutes discrete operators into the written form of the continuous
equation, while the variational route differentiates the discrete
functional.  The comparator reports where (and by how much) the two routes
disagree; for the symmetric classical embedding they differ by a one-index
shift of the second-difference stencil, while the asymmetric and
Grunwald-Letnikov embeddings yield identical schemes.
Newton Jacobians come from the chain rule through pointwise Hessian
blocks, never from a residual.  Both fractional families take one
Jacobian, whose outer operator A = K[:, 1:n]^T (K the velocity kernel)
is the direct embedding's opposite-side GL kernel by discrete fractional
integration by parts.  A mechanical Lagrangian's kinetic block comes from
one Gram matrix per solve, any other Lagrangian's from a per-node product.

Each scheme-family rule is stated once: a :class:`SchemeKind` checks its
sigma and order when built, and :func:`_check_layout` is the one layout
check, made by :func:`assemble_residual`, :func:`jacobian` and the Newton
solver.  Behind them are array-level cores: node values in, an array out,
nothing checked.  ``_assemble_values`` dispatches the residual cores
(``_direct_classical``, ``_asymmetric_direct``, ``_direct_fractional``,
``lagrangians._gradient``) by family; ``_jacobian_core(kind, grid)``
makes the Jacobian core of one grid, which holds that grid's constants.
The direct and variational cores stay two independent assemblies; they
share only the operators.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .diffops import _delta, _velocity
from .fracops import _check_unit_alpha, _kernel, _scale, _velocity_alpha
from .fracops import gl_adjoint_apply, gl_apply
from .grids import MINUS, DomainError, Grid, ResidualField, Trajectory, check_sigma
from .grids import _fmt, _rows, sigma_label
from .lagrangians import FD_NOISE, Lagrangian, Vec, functional_gradient, _check_dims
from .lagrangians import _hessian_blocks
from .lagrangians import _gradient, _lagrangian_values

# perfbench/tracer.py times these names here; the assemblies call the array
# cores they wrap
from .diffops import discrete_velocity, seq_delta  # noqa: F401
from .fracops import discrete_velocity_alpha, frac_seq_minus, frac_seq_plus  # noqa: F401

#: Relative tolerance for declaring two residual paths coherent.
COHERENCE_RTOL = 1e-10


class SchemeFamily(enum.Enum):
    DIRECT_CLASSICAL = "direct-classical"
    VARIATIONAL_CLASSICAL = "vi-classical"
    ASYMMETRIC_DIRECT = "asymmetric-direct"
    DIRECT_FRACTIONAL = "direct-fractional"
    VARIATIONAL_FRACTIONAL = "vi-fractional"


_FRACTIONAL_FAMILIES = (
    SchemeFamily.DIRECT_FRACTIONAL,
    SchemeFamily.VARIATIONAL_FRACTIONAL,
)


@dataclass(frozen=True)
class SchemeKind:
    """A scheme family plus its parameters; alpha is present iff fractional,
    and then a float in (0, 1].  A kind is valid once built."""

    family: SchemeFamily
    sigma: int
    alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma", check_sigma(self.sigma))
        if self.family in _FRACTIONAL_FAMILIES:
            if self.alpha is None:
                raise DomainError(f"{self.family.value} requires alpha")
            object.__setattr__(self, "alpha", _check_unit_alpha(self.alpha))
        elif self.alpha is not None:
            raise DomainError(f"{self.family.value} does not take alpha")

    @property
    def is_fractional(self) -> bool:
        return self.family in _FRACTIONAL_FAMILIES


def residual_direct_classical(
    lag: Lagrangian, q: Trajectory, sigma: int
) -> ResidualField:
    """Direct embedding of the Euler-Lagrange equation:

        R_k = Lx(Q_k, v_k, t_k) + sigma * (delta_sigma [Lv])_k,
        v = -sigma * delta_sigma Q.

    Window: {2, .., n} for sigma = -1, {0, .., n-2} for sigma = +1 (the
    maximal set where the outer same-side difference exists).
    """
    return assemble_residual(SchemeKind(SchemeFamily.DIRECT_CLASSICAL, sigma), lag, q)


def _direct_classical(lag: Lagrangian, values: Vec, grid: Grid, sigma: int) -> Vec:
    """Array core of :func:`residual_direct_classical`: node values
    (n+1, d) in, the residual over its window (n-1, d) out."""
    h = grid.h
    rows = _rows(sigma, grid.n)
    v = _velocity(values, h, sigma)
    lx, lv = _lagrangian_values(lag, values[rows], v, grid.nodes[rows])
    lx_win = lx[1:] if sigma == MINUS else lx[:-1]
    return lx_win + sigma * _delta(lv, h, sigma)


def newton_friction_direct(q: Trajectory) -> ResidualField:
    """Standalone stencil for the forward-embedded damped oscillator:

        R_k = (Q_{k+2} - 2 Q_{k+1} + Q_k)/h^2 + (Q_{k+1} - Q_k)/h + Q_k,
        k in {0, .., n-2}.
    """
    v = q.values
    h = q.grid.h
    acc = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    vel = (v[1:-1] - v[:-2]) / h
    return ResidualField(q.grid, 0, acc + vel + v[:-2])


def residual_vi_classical(
    lag: Lagrangian, q: Trajectory, sigma: int
) -> ResidualField:
    """Variational integrator scheme, assembled by operator application:

        R_k = Lx(Q_k, v_k, t_k) - sigma * (delta_{-sigma} [Lv])_k,
        k in {1, .., n-1}.

    Coincides with the discrete-functional gradient, which assembles it.
    """
    return functional_gradient(lag, q, sigma)


def residual_asymmetric_direct(
    lag: Lagrangian, q: Trajectory, sigma: int
) -> ResidualField:
    """Direct embedding of the asymmetric Euler-Lagrange equation.

    Substitutes delta_plus for the forward derivative and delta_minus for
    the backward derivative in the one-sided continuous formula; written as
    its own transcription so agreement with :func:`residual_vi_classical`
    stays a two-path check.
    """
    return assemble_residual(SchemeKind(SchemeFamily.ASYMMETRIC_DIRECT, sigma), lag, q)


def _asymmetric_direct(lag: Lagrangian, values: Vec, grid: Grid, sigma: int) -> Vec:
    """Array core of :func:`residual_asymmetric_direct`: node values
    (n+1, d) in, the residual at the interior nodes (n-1, d) out."""
    hinv = 1.0 / grid.h
    rows = _rows(sigma, grid.n)
    v = _velocity(values, grid.h, sigma)
    lx, lv = _lagrangian_values(lag, values[rows], v, grid.nodes[rows])
    # interior nodes 1..n-1 are rows 0..n-2 of {1, .., n} and 1..n-1 of {0, .., n-1}
    if sigma == MINUS:
        d = (lv[:-1] - lv[1:]) * hinv  # delta_plus on the Lv sequence
        return lx[:-1] - sigma * d
    d = (lv[1:] - lv[:-1]) * hinv  # delta_minus on the Lv sequence
    return lx[1:] - sigma * d


def residual_direct_fractional(
    lag: Lagrangian, q: Trajectory, sigma: int, alpha: float
) -> ResidualField:
    """Direct embedding of the fractional Euler-Lagrange equation:

        R_k = Lx(Q_k, v_k, t_k) - sigma * (delta^alpha_{-sigma} [Lv])_k,
        v = -sigma * delta^alpha_sigma Q,  k in {1, .., n-1}.

    Assembled by operator substitution; the variational path lives in
    :func:`fracvi.lagrangians.functional_gradient` and never shares this
    assembly.
    """
    kind = SchemeKind(SchemeFamily.DIRECT_FRACTIONAL, sigma, alpha)
    return assemble_residual(kind, lag, q)


def _direct_fractional(
    lag: Lagrangian, values: Vec, grid: Grid, sigma: int, alpha: float
) -> Vec:
    """Array core of :func:`residual_direct_fractional`: node values
    (n+1, d) in, the residual at the interior nodes (n-1, d) out."""
    n, h = grid.n, grid.h
    rows = _rows(sigma, n)
    v = _velocity_alpha(values, h, sigma, alpha)
    lx, lv = _lagrangian_values(lag, values[rows], v, grid.nodes[rows])
    # the opposite-side GL operator on the Lv sequence (frac_seq_plus for
    # sigma = -1, frac_seq_minus for sigma = +1), over the interior nodes
    outer = gl_apply(alpha, -sigma, np.ascontiguousarray(lv)) * _scale(h, alpha)
    interior = slice(0, n - 1) if sigma == MINUS else slice(1, n)
    return lx[interior] - sigma * outer


def residual_vi_fractional(
    lag: Lagrangian, q: Trajectory, sigma: int, alpha: float
) -> ResidualField:
    """Fractional variational integrator: the discrete-functional gradient."""
    return functional_gradient(lag, q, sigma, alpha)


def _check_layout(kind: SchemeKind, lag: Lagrangian, q: Trajectory) -> None:
    """The one check of a kind's residual on ``q``: the dimensions match,
    and n >= 3 for the direct classical scheme."""
    _check_dims(lag, q)
    if kind.family is SchemeFamily.DIRECT_CLASSICAL and q.grid.n < 3:
        raise DomainError("direct classical residual needs n >= 3")


def assemble_residual(kind: SchemeKind, lag: Lagrangian, q: Trajectory) -> ResidualField:
    """The residual of a scheme kind on q, checked once, over its window."""
    _check_layout(kind, lag, q)
    k_start = 1
    if kind.family is SchemeFamily.DIRECT_CLASSICAL:
        k_start = 2 if kind.sigma == MINUS else 0
    return ResidualField(q.grid, k_start, _assemble_values(kind, lag, q.values, q.grid))


def _assemble_values(kind: SchemeKind, lag: Lagrangian, values: Vec, grid: Grid) -> Vec:
    """Array core of :func:`assemble_residual`: node values (n+1, d) in,
    the residual field's values (n-1, d) out.  Nothing is checked: the
    caller checks the layout once (:func:`_check_layout`)."""
    fam = kind.family
    if fam is SchemeFamily.DIRECT_CLASSICAL:
        return _direct_classical(lag, values, grid, kind.sigma)
    if fam is SchemeFamily.ASYMMETRIC_DIRECT:
        return _asymmetric_direct(lag, values, grid, kind.sigma)
    if fam is SchemeFamily.DIRECT_FRACTIONAL:
        return _direct_fractional(lag, values, grid, kind.sigma, kind.alpha)
    return _gradient(lag, values, grid, kind.sigma, kind.alpha)


def jacobian(kind: SchemeKind, lag: Lagrangian, q: Trajectory) -> np.ndarray:
    """Newton Jacobian of a kind's residual in the interior nodes of q, by
    the chain rule through the pointwise Hessian blocks (4*d + 2 callback
    calls, no residual call).  With v = V Q and P picking the interior
    rows of the window, each residual applies an outer operator A to lv.

    A fractional Jacobian is dense, rows and columns (node, component),
    node-major.  Both fractional residuals read R = P^T lx - sigma s A lv,
    with V = -sigma s K[:, 1:n] for the velocity kernel K and s = h^-alpha,
    so J = P^T (Hxx P + Hxv V) - sigma s A (Hvx P + Hvv V), where
    A = K[:, 1:n]^T for both families: discrete fractional integration by
    parts makes it the direct embedding's opposite-side GL kernel.  When
    Hvx is zero and every entry of Hvv is one value at all nodes up to the
    noise of one forward quotient (``FD_NOISE``), as for every mechanical
    Lagrangian, the kinetic term is s^2 (G kron mean(Hvv)) with the Gram
    matrix G = A K[:, 1:n]: O(n^2 d^2) work.  Otherwise it is one dense
    O(n^3 d^2) product.

    A classical Jacobian is block diagonals of shape (3, n-1, d, d): row
    block i holds ``bands[:, i]`` in the columns of unknown nodes i-1, i
    and i+1 (``bands[0, 0]`` and ``bands[2, -1]`` are zero).  With
    v_k = -sigma (Q_k - Q_{k+sigma})/h, row i of each classical residual
    reads lx_m - sigma (lv_k - lv_{k-sigma})/h at k = i + 1: m = k for the
    variational and asymmetric schemes, m = k - sigma for the direct one
    (whose outer stencil +sigma (lv_m - lv_{m+sigma})/h is the same term).
    J = P^T (Hxx P + Hxv V) + A (Hvx P + Hvv V) puts each term on a fixed
    band: six slice-adds, no per-node loop.
    """
    _check_layout(kind, lag, q)
    return _jacobian_core(kind, q.grid)(lag, q.values)


def _jacobian_core(kind: SchemeKind, grid: Grid):
    """Array core of :func:`jacobian` for one kind and grid:
    ``core(lag, values)``, node values (n+1, d) in, the Jacobian out,
    nothing checked.  A classical core is the kind and grid bound to
    :func:`_classical_bands`.  A fractional core holds what its
    Jacobians read but never change: the velocity kernel's interior
    columns K[:, 1:n] (a view of the cached kernel, unscaled), the window
    rows of the interior nodes and their columns, and ``gram()``, the Gram
    matrix G = A K[:, 1:n], formed by one product at its first call and
    kept; A = K[:, 1:n]^T, for both families, is the cached adjoint.  A
    solve makes one core."""
    if not kind.is_fractional:
        return functools.partial(_classical_bands, kind, grid)
    sigma, alpha, n, h = kind.sigma, kind.alpha, grid.n, grid.h
    inner = _kernel(alpha, n, sigma)[:, 1:n]
    cols = np.arange(n - 1)
    rows = cols if sigma == MINUS else cols + 1
    adjoint = functools.partial(gl_adjoint_apply, alpha, sigma)  # A, unscaled
    gram = functools.cache(lambda: adjoint(inner))
    window = _rows(sigma, n)
    s = _scale(h, alpha)
    vs = -sigma * s  # V = vs K[:, 1:n]

    def core(lag: Lagrangian, values: Vec) -> Vec:
        d = values.shape[1]
        v = _velocity_alpha(values, h, sigma, alpha)
        hxx, hxv, hvx, hvv = _hessian_blocks(lag, values[window], v, grid.nodes[window])
        kinetic = _uniform_kinetic(hvx, hvv)
        if kinetic is None:
            # W = Hvx P + Hvv V, indexed [window node, a, interior node, b]
            w = (vs * hvv)[:, :, None, :] * inner[:, None, :, None]
            w[rows, :, cols, :] += hvx[rows]
            jac = (vs * adjoint(w.reshape(n, -1))).reshape(n - 1, d, n - 1, d)
        else:
            # -sigma s A (Hvv V) with one Hvv is s^2 (A K[:, 1:n]) kron Hvv
            jac = gram()[:, None, :, None] * ((s * s) * kinetic)[None, :, None, :]
        if hxv.any():  # zero for every mechanical Lagrangian
            jac += (vs * hxv[rows])[:, :, None, :] * inner[rows][:, None, :, None]
        jac[cols, :, cols, :] += hxx[rows]
        return jac.reshape((n - 1) * d, (n - 1) * d)

    return core


def _uniform_kinetic(hvx: Vec, hvv: Vec) -> Vec | None:
    """The node mean of ``hvv`` if ``hvx`` is zero and each entry of
    ``hvv`` spreads over the nodes by no more than the noise of one
    forward quotient, else None."""
    if hvx.any():
        return None
    mean = hvv.mean(axis=0)
    if np.all(np.ptp(hvv, axis=0) <= FD_NOISE * (1.0 + np.abs(mean))):
        return mean
    return None


def _classical_bands(kind: SchemeKind, grid: Grid, lag: Lagrangian, values: Vec) -> Vec:
    """The classical core, with the kind and grid bound: node values
    (n+1, d) in, the bands out."""
    sigma, n, h = kind.sigma, grid.n, grid.h
    s = sigma / h
    window = _rows(sigma, n)
    v = _velocity(values, h, sigma)
    hxx, hxv, hvx, hvv = _hessian_blocks(lag, values[window], v, grid.nodes[window])
    # d lx_k and d lv_k by Q_k and by Q_{k+sigma}, over the velocity's window
    moves = ((hxx - s * hxv, s * hxv), (hvx - s * hvv, s * hvv))
    m = 1 - sigma if kind.family is SchemeFamily.DIRECT_CLASSICAL else 1
    first = 1 if sigma == MINUS else 0  # node of the window's first entry
    bands = np.zeros((3, n - 1) + hxx.shape[1:])
    for which, node, factor in ((0, m, 1.0), (1, 1, -s), (1, 1 - sigma, s)):
        # row i reads node k = i + node, whose Q_k lies on band ``node``
        # and Q_{k+sigma} on band ``node + sigma``
        rows = slice(node - first, node - first + n - 1)
        for band, block in zip((node, node + sigma), moves[which]):
            bands[band] += factor * block[rows]
    bands[0, 0] = bands[2, -1] = 0.0  # the pinned end nodes are no unknowns
    return bands


#: Coherence kind -> the direct family compared with the variational gradient.
_COHERENCE_DIRECT = {
    "classical": SchemeFamily.DIRECT_CLASSICAL,
    "asymmetric": SchemeFamily.ASYMMETRIC_DIRECT,
    "fractional": SchemeFamily.DIRECT_FRACTIONAL,
}
COHERENCE_KINDS = tuple(_COHERENCE_DIRECT)

VERDICT_COHERENT = "COHERENT"
VERDICT_NOT_COHERENT = "NOT COHERENT"


@dataclass(frozen=True)
class CoherenceReport:
    """Gap between the direct-embedding and variational residual paths."""

    kind: str
    sigma: int
    alpha: float | None
    n: int
    gap: float
    scale: float
    witness_index: int
    verdict: str

    @property
    def coherent(self) -> bool:
        return self.verdict == VERDICT_COHERENT

    def text(self) -> str:
        alpha = "" if self.alpha is None else f" alpha={self.alpha:g}"
        return (
            f"{self.kind} embedding, sigma={sigma_label(self.sigma)}{alpha}, "
            f"n={self.n}: max gap {self.gap:.3e} at k={self.witness_index} "
            f"(scale {self.scale:.3e}) -> {self.verdict}"
        )

    def csv_row(self) -> list[str]:
        return [
            self.kind,
            sigma_label(self.sigma),
            "" if self.alpha is None else _fmt(self.alpha),
            str(self.n),
            _fmt(self.gap),
            self.verdict,
        ]


def coherence_report(
    lag: Lagrangian,
    q: Trajectory,
    sigma: int,
    alpha: float | None = None,
    kind: str | None = None,
) -> CoherenceReport:
    """Compare the two residual paths on their shared index window.

    ``kind`` selects the embedding: "classical" (direct vs variational,
    symmetric operators), "asymmetric" (one-sided rewrite, direct vs
    variational), or "fractional" (requires ``alpha``).  When ``kind`` is
    omitted it is inferred from the presence of ``alpha``.
    """
    if kind is None:
        kind = "fractional" if alpha is not None else "classical"
    if kind not in COHERENCE_KINDS:
        raise DomainError(f"kind must be one of {COHERENCE_KINDS}, got {kind!r}")
    direct = assemble_residual(SchemeKind(_COHERENCE_DIRECT[kind], sigma, alpha), lag, q)
    variational = functional_gradient(lag, q, sigma, alpha)
    for route, residual in (("direct", direct), ("variational", variational)):
        finite = np.isfinite(residual.values).all(axis=1)
        if not finite.all():
            k = residual.k_start + int(np.argmin(finite))
            raise DomainError(f"{kind} embedding: the {route} residual is not finite at k={k}")

    lo = max(direct.indices.start, variational.indices.start)
    hi = min(direct.indices.stop, variational.indices.stop)
    a = direct.values[lo - direct.k_start : hi - direct.k_start]
    b = variational.values[lo - variational.k_start : hi - variational.k_start]
    diff = np.abs(a - b)
    flat = int(np.argmax(diff))
    witness = lo + flat // q.dim
    gap = float(diff.ravel()[flat])
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    verdict = (
        VERDICT_COHERENT
        if gap <= COHERENCE_RTOL * (1.0 + scale)
        else VERDICT_NOT_COHERENT
    )
    return CoherenceReport(
        kind=kind,
        sigma=sigma,
        alpha=alpha,
        n=q.grid.n,
        gap=gap,
        scale=scale,
        witness_index=witness,
        verdict=verdict,
    )
