"""Residual assemblers for the discrete Euler-Lagrange schemes, and the
coherence comparator between the direct-embedding and variational paths.

Two genuinely independent routes produce each scheme: direct embedding
substitutes discrete operators into the written form of the continuous
equation, while the variational route differentiates the discrete
functional.  The comparator reports where (and by how much) the two routes
disagree; for the symmetric classical embedding they differ by a one-index
shift of the second-difference stencil, while the asymmetric and
Grunwald-Letnikov embeddings yield identical schemes.  They differ only
in the outer operator: sigma-sided for the symmetric one, else -sigma.
Newton Jacobians come from the chain rule through pointwise Hessian
blocks, never from a residual.  Their layout follows the kernel's reach:
three block diagonals at alpha = 1 (every classical kind), else dense.
Both fractional families take one Jacobian, whose outer operator
A = K[:, 1:n]^T (K the velocity kernel) is the direct embedding's
opposite-side GL kernel by discrete fractional integration by parts.  A
mechanical Lagrangian's kinetic block comes from one Gram matrix per
solve, any other Lagrangian's from a per-node product.

:class:`SchemeFamily` tabulates the five residuals and their windows,
and :func:`assemble_residual` is their one public entry.  Each
scheme-family rule is stated once: a :class:`SchemeKind` checks its
sigma and order when built, and :func:`_check_layout` is the one layout
check, made by :func:`assemble_residual`, :func:`jacobian` and the Newton
solver.  Behind them are array-level cores of one kind and grid: node
values in, an array out, nothing checked.  ``_residual_core(kind, grid)``
makes one of two residual cores, ``_direct`` (direct substitution, its
outer side from ``SchemeKind.outer``) or ``lagrangians._gradient`` (the
functional gradient), at alpha = 1 for the classical kinds;
``_jacobian_core(kind, grid)`` makes the Jacobian core.  Each holds the GL
operators, the scale h^-alpha and the window rows it reads from when it is
made; a solve makes one of each, the public assemblers one per call.  The
two residual cores stay independent assemblies; they share only the
window rows, the velocity, the GL product, the scale and the callback call.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .fracops import _kernel, _operator, _scale, _unit_order, _velocity
from .grids import MINUS, DomainError, Grid, ResidualField, Trajectory, check_sigma
from .grids import _fmt, _outer_rows, _rows, sigma_label
from .lagrangians import FD_NOISE, Lagrangian, Vec, functional_gradient, _check_dims
from .lagrangians import _hessian_blocks
from .lagrangians import _gradient, _lagrangian_values

# perfbench/tracer.py times these names here; the assemblies call the array
# cores they wrap
from .fracops import discrete_velocity, discrete_velocity_alpha, seq_delta  # noqa: F401
from .fracops import frac_seq_minus, frac_seq_plus  # noqa: F401

#: Relative tolerance for declaring two residual paths coherent.
COHERENCE_RTOL = 1e-10


class SchemeFamily(enum.Enum):
    """The five schemes.  Each embeds the Euler-Lagrange equation (the
    direct families, by substituting discrete operators into it) or the
    action (the variational ones, by differentiating the discrete
    functional), by Gauss differences or, for the fractional families, by
    Grunwald-Letnikov (GL) differences of order alpha in (0, 1].  With the
    velocity v = -sigma delta^alpha_sigma Q (delta_sigma Q at alpha = 1,
    the classical case) and Lx, Lv taken at (Q_k, v_k, t_k), the residual
    of each family over its window of k is:

        family             R_k                                        k in
        direct-classical   Lx + sigma (delta_sigma [Lv])_k            {2, .., n} (sigma -1),
                                                                      {0, .., n-2} (sigma +1)
        vi-classical       Lx - sigma (delta_{-sigma} [Lv])_k         {1, .., n-1}
        asymmetric-direct  Lx - sigma (delta_{-sigma} [Lv])_k         {1, .., n-1}
        direct-fractional  Lx - sigma (delta^alpha_{-sigma} [Lv])_k   {1, .., n-1}
        vi-fractional      Lx - sigma (delta^alpha_{-sigma} [Lv])_k   {1, .., n-1}

    The direct-classical window is the maximal set where its same-side
    outer difference exists.  The asymmetric-direct scheme substitutes
    delta_plus for the forward derivative and delta_minus for the backward
    one in the one-sided continuous equation.  So asymmetric-direct and
    direct-fractional give the residuals of vi-classical and vi-fractional,
    each assembled independently of its variational twin, while
    direct-classical's row k - sigma is vi-classical's row k with Lx read
    one node over.  :func:`assemble_residual` assembles every family."""

    DIRECT_CLASSICAL = "direct-classical"
    VARIATIONAL_CLASSICAL = "vi-classical"
    ASYMMETRIC_DIRECT = "asymmetric-direct"
    DIRECT_FRACTIONAL = "direct-fractional"
    VARIATIONAL_FRACTIONAL = "vi-fractional"


@dataclass(frozen=True)
class SchemeKind:
    """A scheme family plus its parameters; alpha is present iff fractional,
    and then a float in (0, 1].  A kind is valid once built."""

    family: SchemeFamily
    sigma: int
    alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma", check_sigma(self.sigma))
        if self.family in (SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.VARIATIONAL_FRACTIONAL):
            if self.alpha is None:
                raise DomainError(f"{self.family.value} requires alpha")
            object.__setattr__(self, "alpha", _unit_order(self.alpha))
        elif self.alpha is not None:
            raise DomainError(f"{self.family.value} does not take alpha")

    @property
    def outer(self) -> int:
        """Side of the outer operator: sigma for direct-classical, else -sigma."""
        return self.sigma if self.family is SchemeFamily.DIRECT_CLASSICAL else -self.sigma

    @property
    def k_start(self) -> int:
        """The residual's first node: how many of sigma and ``outer`` are MINUS."""
        return (self.sigma == MINUS) + (self.outer == MINUS)


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


def _direct(grid: Grid, sigma: int, alpha: float, side: int):
    """Array core of every direct embedding for one grid:
    ``direct(lag, values)``, node values (n+1, d) in, the residual over its
    window (n-1, d) out; the outer GL operator on the Lv sequence acts on
    ``side``.  It holds the velocity, the signed scale side h^-alpha, the
    outer operator and the window rows, and passes ``lv`` to the outer
    operator as ``_call`` returned it."""
    n = grid.n
    rows, landing = _rows(sigma, n), _outer_rows(side, n)
    nodes = grid.nodes[rows]
    velocity = _velocity(alpha, sigma, grid)
    factor, outer = side * _scale(grid.h, alpha), _operator(alpha, n - 1, side, False)

    def direct(lag: Lagrangian, values: Vec) -> Vec:
        lx, lv = _lagrangian_values(lag, values[rows], velocity(values), nodes)
        return lx[landing] + outer(lv) * factor

    return direct


def _check_layout(kind: SchemeKind, lag: Lagrangian, q: Trajectory) -> None:
    """The one check of a kind's residual on ``q``: the dimensions match,
    and n >= 3 for the direct classical scheme."""
    _check_dims(lag, q)
    if kind.family is SchemeFamily.DIRECT_CLASSICAL and q.grid.n < 3:
        raise DomainError("direct classical residual needs n >= 3")


def assemble_residual(kind: SchemeKind, lag: Lagrangian, q: Trajectory) -> ResidualField:
    """The residual of a scheme kind on q, checked once, over its window."""
    _check_layout(kind, lag, q)
    return ResidualField(q.grid, kind.k_start, _residual_core(kind, q.grid)(lag, q.values))


def _residual_core(kind: SchemeKind, grid: Grid):
    """Array core of :func:`assemble_residual` for one kind and grid:
    ``core(lag, values)``, node values (n+1, d) in, the residual field's
    values (n-1, d) out.  Nothing is checked: the caller checks the layout
    once (:func:`_check_layout`)."""
    alpha = _unit_order(kind.alpha)
    if kind.family in (SchemeFamily.VARIATIONAL_CLASSICAL, SchemeFamily.VARIATIONAL_FRACTIONAL):
        return _gradient(grid, kind.sigma, alpha)
    return _direct(grid, kind.sigma, alpha, kind.outer)


# perfbench/workloads.py imports these three per-family residuals, an
# alias and two wrappers, for its untimed checks, and nothing else calls
# them; the benchmark change of ROADMAP.md item 1 deletes them.  Every
# other caller assembles a residual by
# assemble_residual(SchemeKind(family, sigma, alpha), lag, q).
residual_vi_classical = functional_gradient  # the vi-classical residual


def residual_asymmetric_direct(
    lag: Lagrangian, q: Trajectory, sigma: int
) -> ResidualField:
    """The asymmetric-direct residual (:class:`SchemeFamily`)."""
    return assemble_residual(SchemeKind(SchemeFamily.ASYMMETRIC_DIRECT, sigma), lag, q)


def residual_direct_fractional(
    lag: Lagrangian, q: Trajectory, sigma: int, alpha: float
) -> ResidualField:
    """The direct-fractional residual (:class:`SchemeFamily`)."""
    kind = SchemeKind(SchemeFamily.DIRECT_FRACTIONAL, sigma, alpha)
    return assemble_residual(kind, lag, q)


def jacobian(kind: SchemeKind, lag: Lagrangian, q: Trajectory) -> np.ndarray:
    """Newton Jacobian of a kind's residual in the interior nodes of q, by
    the chain rule through the pointwise Hessian blocks (4*d + 2 callback
    calls, no residual call).  With v = V Q and P picking the interior
    rows of the window, each residual applies an outer operator A to lv.

    Below alpha = 1 a Jacobian is dense, rows and columns (node, component),
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

    At alpha = 1 (every classical kind) it is block diagonals of shape
    (3, n-1, d, d): row block i holds ``bands[:, i]`` in the columns of
    unknown nodes i-1, i and i+1 (``bands[0, 0]`` and ``bands[2, -1]`` are
    zero).  With v_k = -sigma (Q_k - Q_{k+sigma})/h, row i of each such
    residual reads lx_m - sigma (lv_k - lv_{k-sigma})/h at k = i + 1 and
    m = i + k_start: m = k - sigma for the direct classical kind (whose
    same-side stencil +sigma (lv_m - lv_{m+sigma})/h is that term), else k.
    J = P^T (Hxx P + Hxv V) + A (Hvx P + Hvv V) puts each term on a fixed
    band: six slice-adds, no per-node loop.
    """
    _check_layout(kind, lag, q)
    return _jacobian_core(kind, q.grid)(lag, q.values)


def _jacobian_core(kind: SchemeKind, grid: Grid):
    """Array core of :func:`jacobian` for one kind and grid:
    ``core(lag, values)``, node values (n+1, d) in, the Jacobian out,
    nothing checked.  At alpha = 1 (``None`` included) the core is the kind
    and grid bound to :func:`_classical_bands`.  Any other core holds what
    its Jacobians read but never change: the scale s = h^-alpha and the
    velocity's factor -sigma s, bound first, the velocity, the velocity
    kernel's interior columns K[:, 1:n] (a view of the kernel it holds,
    unscaled), the adjoint A = K[:, 1:n]^T of both families, bound (one
    contiguous array, which the kernel builder makes from the same GL
    weights as K), the window rows of the interior nodes and their
    columns, and ``gram()``, the Gram matrix G = A K[:, 1:n], formed by one
    product at its first call and kept.  A solve makes one core."""
    if kind.alpha in (None, 1.0):
        return functools.partial(_classical_bands, kind, grid)
    sigma, alpha, n = kind.sigma, kind.alpha, grid.n
    s = _scale(grid.h, alpha)
    vs = -sigma * s  # V = vs K[:, 1:n]
    inner = _kernel(alpha, n, sigma, False)[:, 1:n]
    cols = np.arange(n - 1)
    rows = np.arange(n)[_outer_rows(-sigma, n)]  # the interior nodes' window rows
    adjoint = _operator(alpha, n, sigma, True)  # A, unscaled
    gram = functools.cache(lambda: adjoint(inner))
    window = _rows(sigma, n)
    velocity = _velocity(alpha, sigma, grid)

    def core(lag: Lagrangian, values: Vec) -> Vec:
        d = values.shape[1]
        v = velocity(values)
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
    """The banded core of alpha = 1, with the kind and grid bound: node
    values (n+1, d) in, the bands out."""
    sigma, n, h = kind.sigma, grid.n, grid.h
    s = sigma / h
    window = _rows(sigma, n)
    v = _velocity(1.0, sigma, grid)(values)
    hxx, hxv, hvx, hvv = _hessian_blocks(lag, values[window], v, grid.nodes[window])
    # d lx_k and d lv_k by Q_k and by Q_{k+sigma}, over the velocity's window
    moves = ((hxx - s * hxv, s * hxv), (hvx - s * hvv, s * hvv))
    m = kind.k_start  # row i reads lx at node m + i
    first = window.start  # node of the window's first entry
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
    """Gap between the direct-embedding and variational residual paths.
    The paths are coherent when the gap is at most ``COHERENCE_RTOL`` times
    one plus the larger residual's scale; ``verdict`` labels that answer."""

    kind: str
    sigma: int
    alpha: float | None
    n: int
    gap: float
    scale: float
    witness_index: int

    @property
    def coherent(self) -> bool:
        return self.gap <= COHERENCE_RTOL * (1.0 + self.scale)

    @property
    def verdict(self) -> str:
        return VERDICT_COHERENT if self.coherent else VERDICT_NOT_COHERENT

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
    return CoherenceReport(
        kind=kind,
        sigma=sigma,
        alpha=alpha,
        n=q.grid.n,
        gap=gap,
        scale=scale,
        witness_index=witness,
    )
