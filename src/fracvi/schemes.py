"""Residual assemblers for the discrete Euler-Lagrange schemes, and the
coherence comparator between the direct-embedding and variational paths.

Two genuinely independent routes produce each scheme: direct embedding
substitutes discrete operators into the written form of the continuous
equation, while the variational route differentiates the discrete
functional.  The comparator reports where (and by how much) the two routes
disagree; for the symmetric classical embedding they differ by a one-index
shift of the second-difference stencil, while the asymmetric and
Grunwald-Letnikov embeddings yield identical schemes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .diffops import discrete_velocity, seq_delta
from .fracops import _check_unit_alpha, _kernel, _scale
from .fracops import discrete_velocity_alpha, frac_seq_minus, frac_seq_plus
from .grids import (
    MINUS,
    DomainError,
    ResidualField,
    ShiftedSequence,
    Trajectory,
    check_sigma,
    sigma_label,
)
from .lagrangians import Lagrangian, functional_gradient, _check_dims, _hessian_blocks
from .lagrangians import _lagrangian_values

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
    """A scheme family plus its parameters; alpha is present iff fractional."""

    family: SchemeFamily
    sigma: int
    alpha: float | None = None

    def __post_init__(self):
        check_sigma(self.sigma)
        if self.family in _FRACTIONAL_FAMILIES:
            if self.alpha is None:
                raise DomainError(f"{self.family.value} requires alpha")
        elif self.alpha is not None:
            raise DomainError(f"{self.family.value} does not take alpha")

    @property
    def is_fractional(self) -> bool:
        return self.family in _FRACTIONAL_FAMILIES

    @property
    def halo(self) -> int | None:
        """How many residual row blocks on each side one unknown node moves.

        The classical schemes are three-point stencils: the i-th interior
        unknown moves only row blocks i-1, i and i+1, so their Jacobian is
        block tridiagonal.  A GL kernel reaches every row (None).
        """
        return None if self.is_fractional else 1


def residual_direct_classical(
    lag: Lagrangian, q: Trajectory, sigma: int
) -> ResidualField:
    """Direct embedding of the Euler-Lagrange equation:

        R_k = Lx(Q_k, v_k, t_k) + sigma * (delta_sigma [Lv])_k,
        v = -sigma * delta_sigma Q.

    Window: {2, .., n} for sigma = -1, {0, .., n-2} for sigma = +1 (the
    maximal set where the outer same-side difference exists).
    """
    check_sigma(sigma)
    _check_dims(lag, q)
    if q.grid.n < 3:
        raise DomainError("direct classical residual needs n >= 3")
    vseq = discrete_velocity(q, sigma)
    lx, lv = _lagrangian_values(lag, q, vseq)
    outer = seq_delta(ShiftedSequence(q.grid, sigma, lv), sigma)
    lx_win = lx[1:] if sigma == MINUS else lx[:-1]
    return ResidualField(q.grid, outer.k_start, lx_win + sigma * outer.values)


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
    check_sigma(sigma)
    _check_dims(lag, q)
    hinv = 1.0 / q.grid.h
    lx, lv = _lagrangian_values(lag, q, discrete_velocity(q, sigma))
    # interior nodes 1..n-1 are rows 0..n-2 of {1, .., n} and 1..n-1 of {0, .., n-1}
    if sigma == MINUS:
        d = (lv[:-1] - lv[1:]) * hinv  # delta_plus on the Lv sequence
        return ResidualField(q.grid, 1, lx[:-1] - sigma * d)
    d = (lv[1:] - lv[:-1]) * hinv  # delta_minus on the Lv sequence
    return ResidualField(q.grid, 1, lx[1:] - sigma * d)


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
    check_sigma(sigma)
    _check_dims(lag, q)
    alpha = _check_unit_alpha(alpha)
    vseq = discrete_velocity_alpha(q, sigma, alpha)
    lx, lv = _lagrangian_values(lag, q, vseq)
    lvseq = ShiftedSequence(q.grid, sigma, lv)
    if sigma == MINUS:
        outer = frac_seq_plus(lvseq, alpha)
        interior = slice(0, q.grid.n - 1)
    else:
        outer = frac_seq_minus(lvseq, alpha)
        interior = slice(1, q.grid.n)
    return ResidualField(q.grid, 1, lx[interior] - sigma * outer.values)


def residual_vi_fractional(
    lag: Lagrangian, q: Trajectory, sigma: int, alpha: float
) -> ResidualField:
    """Fractional variational integrator: the discrete-functional gradient."""
    return functional_gradient(lag, q, sigma, alpha)


def assemble_residual(kind: SchemeKind, lag: Lagrangian, q: Trajectory) -> ResidualField:
    """Dispatch a scheme kind to its residual assembler."""
    fam = kind.family
    if fam is SchemeFamily.DIRECT_CLASSICAL:
        return residual_direct_classical(lag, q, kind.sigma)
    if fam is SchemeFamily.VARIATIONAL_CLASSICAL:
        return residual_vi_classical(lag, q, kind.sigma)
    if fam is SchemeFamily.ASYMMETRIC_DIRECT:
        return residual_asymmetric_direct(lag, q, kind.sigma)
    if fam is SchemeFamily.DIRECT_FRACTIONAL:
        return residual_direct_fractional(lag, q, kind.sigma, kind.alpha)
    if fam is SchemeFamily.VARIATIONAL_FRACTIONAL:
        return residual_vi_fractional(lag, q, kind.sigma, kind.alpha)
    raise DomainError(f"unknown scheme family {fam!r}")


def fractional_jacobian(kind: SchemeKind, lag: Lagrangian, q: Trajectory) -> np.ndarray:
    """Jacobian of a fractional residual in the interior nodes of q.

    Both fractional residuals read R = P^T lx - sigma s A lv, with
    v = V Q, V = -sigma s K[:, 1:n] for the velocity kernel K and
    s = h^-alpha, and P picking the interior rows of the window.  The
    chain rule through the pointwise Hessian blocks then gives

        J = P^T (Hxx P + Hxv V) - sigma s A (Hvx P + Hvv V),

    one dense product, with the blocks from 4*d + 2 callback calls.  Each
    family linearizes its own outer operator A, the cached kernel its
    residual applies: the adjoint K[:, 1:n]^T for the variational
    gradient, the opposite-side GL kernel of ``frac_seq_*`` for the direct
    embedding.  Rows and columns are (node, component), node-major.
    """
    if not kind.is_fractional:
        raise DomainError(f"{kind.family.value} has no structured Jacobian")
    _check_dims(lag, q)
    sigma = kind.sigma
    alpha = _check_unit_alpha(kind.alpha)
    n, d = q.grid.n, q.dim
    kernel = _kernel(alpha, n, sigma)
    if kind.family is SchemeFamily.VARIATIONAL_FRACTIONAL:
        outer = kernel[:, 1:n].T
    else:
        outer = _kernel(alpha, n - 1, -sigma)
    hxx, hxv, hvx, hvv = _hessian_blocks(lag, q, discrete_velocity_alpha(q, sigma, alpha))
    s = _scale(q.grid.h, alpha)
    vel = (-sigma * s) * kernel[:, 1:n]
    cols = np.arange(n - 1)
    rows = cols if sigma == MINUS else cols + 1
    # W = Hvx P + Hvv V, indexed [window node, a, interior node, b]
    w = hvv[:, :, None, :] * vel[:, None, :, None]
    w[rows, :, cols, :] += hvx[rows]
    jac = ((-sigma * s) * (outer @ w.reshape(n, -1))).reshape(n - 1, d, n - 1, d)
    jac += hxv[rows][:, :, None, :] * vel[rows][:, None, :, None]
    jac[cols, :, cols, :] += hxx[rows]
    return jac.reshape((n - 1) * d, (n - 1) * d)


COHERENCE_KINDS = ("classical", "asymmetric", "fractional")

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
            "" if self.alpha is None else f"{self.alpha:.17g}",
            str(self.n),
            f"{self.gap:.17g}",
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
    check_sigma(sigma)
    if kind is None:
        kind = "fractional" if alpha is not None else "classical"
    if kind not in COHERENCE_KINDS:
        raise DomainError(f"kind must be one of {COHERENCE_KINDS}, got {kind!r}")
    if kind == "fractional":
        if alpha is None:
            raise DomainError("fractional coherence requires alpha")
        direct = residual_direct_fractional(lag, q, sigma, alpha)
        variational = residual_vi_fractional(lag, q, sigma, alpha)
    else:
        alpha = None
        variational = residual_vi_classical(lag, q, sigma)
        if kind == "classical":
            direct = residual_direct_classical(lag, q, sigma)
        else:
            direct = residual_asymmetric_direct(lag, q, sigma)

    lo = max(direct.indices.start, variational.indices.start)
    hi = min(direct.indices.stop, variational.indices.stop)
    if lo >= hi:
        raise DomainError(
            f"residual windows {direct.indices} and {variational.indices} "
            "do not intersect"
        )
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
