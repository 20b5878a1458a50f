"""Bit comparison of the package's outcomes over a fixed matrix of cases.

Run it from a checkout, once per tree to compare:

    PYTHONPATH=<checkout>/src python tests/bitcheck.py [max_n]

It prints one line per group of cases: the group, its case count and one
sha256 over the bytes of every outcome in it.  Two trees whose lines agree
give the same bytes on every case of those groups.  ``max_n`` drops the
cases with a larger n (the smallest, 4, is the tier-1 smoke test); pytest
does not collect this file.

A boundary-value case hashes the solve (the trajectory, or the failure
message and the last iterate; the history; the converged flag and the
three counters) and, at a seeded random trajectory on the same grid, the
public residual, the Jacobian, the functional gradient, the discrete
functional and the velocity.  Groups:

- classical: the three classical families x sigma x every built-in
  problem (free, and harmonic and pendulum at omega 1.5) and the coupled
  test Lagrangian of ``oracles.py`` x d 1-2 x n 4, 5, 16, 64, 257, 1025 x
  tol 1e-7 and 1e-11, 576 cases;
- fractional: both fractional families x sigma x alpha 0.3 and 0.8 x the
  same problems x d 1-2 x n 4, 16, 64, 130, 256 x the same tolerances;
- fractional-alpha-1: the same at alpha = 1;
- march: ``march_direct_classical`` on the same problems x d 1-2 x n 64,
  256, 1024, 2048 x the same tolerances, from seeded first two nodes;
- march-kinds: ``march`` of the other five classical (family, sigma)
  pairs on the same matrix;
- march-failures: the same marches with ``max_iter`` 1, and with ``Lx``
  NaN past t = 0.5 (the "-nan" problems), x d 1-2 x n 64 and 1024 x the
  same tolerances; and at n 4096, tol 1e-9, where the step residual's
  rounding floor nears the target, the same problems and the harmonic one
  from the start ``fracvi convergence --scheme direct`` takes ("-cli":
  Q_0 = 1, Q_1 = cos(omega h) + sin(omega h)/2), which stalls on it;
- operators: the public operators on seeded trajectories, x sigma (the
  velocity's side and the window of the windowed operators) x classical
  and alpha 0.3, 0.8 and 1 x d 1-2 x n 4, 5, 16, 64, 257.  Classical:
  ``delta_plus``, ``delta_minus``, ``discrete_velocity``, ``seq_delta``
  of both sides on the window, ``gauss_quadrature`` and
  ``check_discrete_ibp``; else ``delta_alpha_plus``, ``delta_alpha_minus``,
  ``discrete_velocity_alpha``, ``frac_seq_minus`` (plus window) or
  ``frac_seq_plus`` (minus window), ``gauss_quadrature`` and
  ``check_discrete_frac_ibp``;
- bvp-failures: boundary-value solves of the five families (the
  fractional ones at alpha 0.3 and 0.8) x sigma x the same problems x d
  1-2 x n 4, 16, 64 x the same tolerances, with ``max_iter`` 1, and on
  the "-nan" problems, whose initial residual is not finite.

One BLAS thread is assumed (``OPENBLAS_NUM_THREADS=1``): a threaded BLAS
may order its sums differently from run to run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import sys
import zlib

import numpy as np

import fracvi as fv
from fracvi.fracops import frac_seq_minus, frac_seq_plus
from fracvi.schemes import SchemeFamily, SchemeKind, jacobian
from fracvi.solver import BVPProblem, NewtonConfig, NewtonConvergenceError
from fracvi.solver import march, march_direct_classical, solve_bvp_newton
from oracles import coupled_lagrangian

SIGMAS = (fv.MINUS, fv.PLUS)
PROBLEMS = ("free", "harmonic", "pendulum", "coupled")
DIMS = (1, 2)
TOLS = (1e-7, 1e-11)
CLASSICAL = (
    SchemeFamily.DIRECT_CLASSICAL,
    SchemeFamily.VARIATIONAL_CLASSICAL,
    SchemeFamily.ASYMMETRIC_DIRECT,
)
FRACTIONAL = (SchemeFamily.DIRECT_FRACTIONAL, SchemeFamily.VARIATIONAL_FRACTIONAL)
PUBLIC_RESIDUAL = {
    SchemeFamily.DIRECT_CLASSICAL: fv.residual_direct_classical,
    SchemeFamily.VARIATIONAL_CLASSICAL: fv.residual_vi_classical,
    SchemeFamily.ASYMMETRIC_DIRECT: fv.residual_asymmetric_direct,
    SchemeFamily.DIRECT_FRACTIONAL: fv.residual_direct_fractional,
    SchemeFamily.VARIATIONAL_FRACTIONAL: fv.residual_vi_fractional,
}

#: group -> the cases' tuples (family, "march" or "operators", sigma, alpha,
#: problem, d, n, tol), the failure groups' with max_iter last; a march case
#: holds its family in the alpha slot, None for the direct classical one
GROUPS = {
    "classical": list(itertools.product(
        CLASSICAL, SIGMAS, [None], PROBLEMS, DIMS, (4, 5, 16, 64, 257, 1025), TOLS)),
    "fractional": list(itertools.product(
        FRACTIONAL, SIGMAS, (0.3, 0.8), PROBLEMS, DIMS, (4, 16, 64, 130, 256), TOLS)),
    "fractional-alpha-1": list(itertools.product(
        FRACTIONAL, SIGMAS, [1.0], PROBLEMS, DIMS, (4, 16, 64, 130, 256), TOLS)),
    "march": list(itertools.product(
        ["march"], [fv.MINUS], [None], PROBLEMS, DIMS, (64, 256, 1024, 2048), TOLS)),
    "march-kinds": [
        ("march", sigma, family, *rest)
        for family, sigma in itertools.product(CLASSICAL, SIGMAS)
        if (family, sigma) != (SchemeFamily.DIRECT_CLASSICAL, fv.MINUS)
        for rest in itertools.product(PROBLEMS, DIMS, (64, 256, 1024, 2048), TOLS)
    ],
    "march-failures": list(itertools.product(
        ["march"], [fv.MINUS], [None], PROBLEMS, DIMS, (64, 1024), TOLS, [1]))
    + list(itertools.product(
        ["march"], [fv.MINUS], [None], [p + "-nan" for p in PROBLEMS], DIMS, (64, 1024), TOLS,
        [50]))
    + list(itertools.product(
        ["march"], [fv.MINUS], [None], PROBLEMS + ("harmonic-cli",), DIMS, [4096], [1e-9],
        [50])),
    "operators": list(itertools.product(
        ["operators"], SIGMAS, (None, 0.3, 0.8, 1.0), [None], DIMS, (4, 5, 16, 64, 257), [None])),
    "bvp-failures": [
        (family, sigma, alpha, problem + suffix, d, n, tol, max_iter)
        for family, alpha in [*itertools.product(CLASSICAL, [None]),
                              *itertools.product(FRACTIONAL, (0.3, 0.8))]
        for suffix, max_iter in (("", 1), ("-nan", 50))
        for sigma, problem, d, n, tol in itertools.product(
            SIGMAS, PROBLEMS, DIMS, (4, 16, 64), TOLS)
    ],
}


def _rng(case) -> np.random.Generator:
    name = case[0] if isinstance(case[0], str) else case[0].value
    return np.random.default_rng(zlib.crc32(repr((name,) + case[1:]).encode()))


def _solved(run) -> list:
    """A solve's outcome: trajectory or failure message and last iterate,
    history, converged flag and counters."""
    try:
        traj, diag = run()
        last, message = traj.values, ""
    except NewtonConvergenceError as exc:
        last, message, diag = exc.last, str(exc), exc.diagnostics
        last = getattr(last, "values", last)
    history = np.array(diag.records, dtype=float).reshape(-1, 3)
    counters = (diag.converged, diag.residual_evals, diag.jacobian_builds, diag.backtracks)
    return [np.asarray(last), message, history, repr(counters)]


def _nan_past_half(lag: fv.Lagrangian) -> fv.Lagrangian:
    """``lag`` with ``Lx`` NaN at every t > 0.5."""

    def Lx(x, v, t):
        return np.where(np.asarray(t)[..., None] > 0.5, np.nan, lag.Lx(x, v, t))

    return dataclasses.replace(lag, Lx=Lx)


def _operators(rng, sigma, alpha, d, n) -> list:
    """The operators' values and window starts on one seeded trajectory,
    the rectangle rule of its velocity, and both sides of the integration
    by parts on two more (F zero at the ends if alpha)."""
    grid = fv.make_grid(0.0, 1.0, n)
    values = rng.uniform(-2.0, 2.0, (3, n + 1, d))
    if alpha is not None:
        values[1, [0, -1]] = 0.0  # the fractional identity has no boundary term
    q, f, g = (fv.Trajectory(grid, v) for v in values)
    window = fv.restrict(q, sigma)
    if alpha is None:
        seqs = [fv.delta_plus(q), fv.delta_minus(q), fv.discrete_velocity(q, sigma),
                fv.seq_delta(window, fv.PLUS), fv.seq_delta(window, fv.MINUS)]
        sides = fv.check_discrete_ibp(f, g)
    else:
        windowed = frac_seq_minus if sigma == fv.PLUS else frac_seq_plus
        seqs = [fv.delta_alpha_plus(q, alpha), fv.delta_alpha_minus(q, alpha),
                fv.discrete_velocity_alpha(q, sigma, alpha), windowed(window, alpha)]
        sides = fv.check_discrete_frac_ibp(f, g, alpha)
    starts = np.array([s.k_start for s in seqs])
    return [s.values for s in seqs] + [starts, np.asarray(fv.gauss_quadrature(seqs[2])),
                                       np.array(sides)]


def outcome(case) -> list:
    """The outcome of one case: a list of arrays and strings."""
    family, sigma, alpha, problem, d, n, tol, *max_iter = case
    rng = _rng(case)
    if family == "operators":
        return _operators(rng, sigma, alpha, d, n)
    name = problem.removesuffix("-nan").removesuffix("-cli")
    if name == "coupled":
        lag = coupled_lagrangian(d)
    else:
        lag = fv.builtin_problem(name, omega=1.5, dim=d)
    if problem.endswith("-nan"):
        lag = _nan_past_half(lag)
    grid = fv.make_grid(0.0, 1.0, n)
    qa, qb = rng.uniform(-1.0, 1.0, (2, d))
    config = NewtonConfig(tol, *max_iter)
    if family == "march":
        q0, q1 = qa, qa + grid.h * qb
        if problem.endswith("-cli"):
            q0, q1 = np.ones(d), np.full(d, math.cos(1.5 * grid.h) + 0.5 * math.sin(1.5 * grid.h))
        if alpha is None:
            return _solved(lambda: march_direct_classical(lag, grid, q0, q1, config))
        return _solved(lambda: march(SchemeKind(alpha, sigma), lag, grid, q0, q1, config))
    kind = SchemeKind(family, sigma, alpha)
    parts = _solved(lambda: solve_bvp_newton(BVPProblem(grid, lag, kind, qa, qb), config=config))
    q = fv.Trajectory(grid, rng.uniform(-2.0, 2.0, (n + 1, d)))
    order = () if alpha is None else (alpha,)
    if alpha is None:
        velocity = fv.discrete_velocity(q, sigma)
    else:
        velocity = fv.discrete_velocity_alpha(q, sigma, alpha)
    return parts + [
        PUBLIC_RESIDUAL[family](lag, q, sigma, *order).values,
        jacobian(kind, lag, q),
        fv.functional_gradient(lag, q, sigma, alpha).values,
        np.float64(fv.discrete_functional(lag, q, sigma, alpha)),
        velocity.values,
    ]


def _bytes(part) -> bytes:
    if isinstance(part, str):
        return part.encode()
    part = np.asarray(part)
    return repr((part.dtype.str, part.shape)).encode() + part.tobytes()


def digests(max_n: int | None = None) -> dict[str, tuple[int, str]]:
    """group -> (case count, sha256 hex) over the cases with n <= max_n."""
    out = {}
    for group, cases in GROUPS.items():
        digest = hashlib.sha256()
        count = 0
        for case in cases:
            if max_n is not None and case[5] > max_n:
                continue
            count += 1
            digest.update(repr(case).encode())
            for part in outcome(case):
                digest.update(_bytes(part))
        out[group] = (count, digest.hexdigest())
    return out


def main(argv: list[str]) -> int:
    max_n = int(argv[0]) if argv else None
    for group, (count, hexdigest) in digests(max_n).items():
        print(f"{group} {count} cases sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
