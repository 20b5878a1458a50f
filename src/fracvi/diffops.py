"""Classical one-sided difference operators and the rectangle quadrature.

``delta_plus``/``delta_minus`` follow the sign convention in which the
discrete analogue of d/dt is ``-sigma * delta_sigma``; no internal
re-normalization is applied anywhere downstream.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import (
    MINUS,
    PLUS,
    ResidualField,
    ShiftedSequence,
    Trajectory,
    _check_ibp_pair,
    check_sigma,
)


def _difference(v: np.ndarray, side: int) -> np.ndarray:
    """The unscaled one-sided difference: v_k - v_{k+1} for ``side=PLUS``,
    v_k - v_{k-1} for MINUS, one row fewer than ``v``."""
    if side == PLUS:
        return v[:-1] - v[1:]
    return v[1:] - v[:-1]


def _delta(v: np.ndarray, h: float, side: int) -> np.ndarray:
    """Array core of the one-sided differences: :func:`_difference` over h."""
    return _difference(v, side) * (1.0 / h)


def delta_plus(q: Trajectory) -> ShiftedSequence:
    """Forward difference (Q_k - Q_{k+1})/h on the window {0, .., n-1}."""
    return ShiftedSequence(q.grid, PLUS, _delta(q.values, q.grid.h, PLUS))


def delta_minus(q: Trajectory) -> ShiftedSequence:
    """Backward difference (Q_k - Q_{k-1})/h on the window {1, .., n}."""
    return ShiftedSequence(q.grid, MINUS, _delta(q.values, q.grid.h, MINUS))


def discrete_velocity(q: Trajectory, sigma: int) -> ShiftedSequence:
    """The derivative analogue (-sigma * delta_sigma Q) on I_sigma."""
    check_sigma(sigma)
    return ShiftedSequence(q.grid, sigma, -sigma * _delta(q.values, q.grid.h, sigma))


def seq_delta(s: ShiftedSequence, side: int) -> ResidualField:
    """Apply delta_side to a windowed sequence.

    The output window is the maximal set of node indices where both terms
    of the difference exist: applying ``side=PLUS`` (uses entries k, k+1)
    drops the last index, ``side=MINUS`` (uses k, k-1) drops the first.
    """
    check_sigma(side)
    k_start = s.k_start if side == PLUS else s.k_start + 1
    return ResidualField(s.grid, k_start, _delta(s.values, s.grid.h, side))


def gauss_quadrature(s: ShiftedSequence):
    """One-sided rectangle rule: h times the sum of entries over I_sigma.

    Returns a float for dim-1 sequences, a (d,) array otherwise.
    """
    h = s.grid.h
    total = np.array([math.fsum(s.values[:, c]) for c in range(s.dim)])
    out = h * total
    return float(out[0]) if s.dim == 1 else out


def check_discrete_ibp(f: Trajectory, g: Trajectory) -> tuple[float, float]:
    """Evaluate both sides of the discrete integration-by-parts identity.

    lhs = sum_{k=1..n} (delta_minus F)_k . G_k
    rhs = sum_{k=0..n-1} F_k . (delta_plus G)_k + (F_n.G_n - F_0.G_0)/h

    Both sides are returned so callers can report the gap magnitude.
    """
    _check_ibp_pair(f, g)
    hinv = 1.0 / f.grid.h
    lhs = math.fsum((delta_minus(f).values * g.values[1:]).ravel())
    boundary = np.array(
        [
            float(np.dot(f.values[-1], g.values[-1])) * hinv,
            -float(np.dot(f.values[0], g.values[0])) * hinv,
        ]
    )
    rhs_terms = np.concatenate(
        [(f.values[:-1] * delta_plus(g).values).ravel(), boundary]
    )
    rhs = math.fsum(rhs_terms)
    return lhs, rhs
