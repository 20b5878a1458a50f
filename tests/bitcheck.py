"""Bit comparison of the package's outcomes over a fixed matrix of cases.

Run it from a checkout:

    PYTHONPATH=<checkout>/src python tests/bitcheck.py [max_n] [--group G ...] [--against OTHER]

It prints one line per group of cases: the group, its case count and one
sha256 over the bytes of every outcome in it.  Two trees whose lines agree
give the same bytes on every case of those groups.  ``max_n`` drops the
cases with a larger n (the smallest, 4, is the tier-1 smoke test), and
``--group``, once per group, runs only the groups it names, in the order
of the list below (``--group cli`` checks a CLI change in seconds); pytest
does not collect this file.  ``--against OTHER`` refuses an OTHER
without ``src/fracvi/__init__.py`` (exit 2).  Else it runs the same pass,
in a subprocess, on the package of the checkout OTHER
(``PYTHONPATH=OTHER/src``), then prints each group whose line differs
there, and exits 1 if any group does.  Each tree computes each case once:
its pass keeps a record per case, from which each differing group says
how far it moved: how many of its cases differ, every case whose kind of
outcome flips (converged, or its failure message; a cli command's exit
code and last line of output; numbers masked), and the largest absolute
change of a solution that converged on both trees, with its case, and
the largest relative one.

A boundary-value case hashes the solve (the trajectory, or the failure
message and the last iterate; the history; the converged flag and the
three counters) and, at a seeded random trajectory on the same grid, the
residual (``assemble_residual``), the Jacobian, the functional gradient,
the discrete functional and the velocity.  Groups:

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
  and alpha 0.3, 0.8, 1 and 1.7 (the GL entries take any positive order)
  x d 1-2 x n 4, 5, 16, 64, 257.  Classical:
  ``delta_plus``, ``delta_minus``, ``discrete_velocity``, ``seq_delta``
  of both sides on the window, ``gauss_quadrature`` and
  ``check_discrete_ibp``; else ``delta_alpha_plus``, ``delta_alpha_minus``,
  ``discrete_velocity_alpha``, ``frac_seq_minus`` (plus window) or
  ``frac_seq_plus`` (minus window), ``gauss_quadrature`` and
  ``check_discrete_frac_ibp``; and either way the batch core
  ``fracops._ibp_sides`` on a stack of three more trials, (3, n + 1, d)
  each for F and G (F zero at the ends at a fractional order).  And, to
  reach the adjoint at large n,
  ``functional_gradient`` of the harmonic problem on a seeded trajectory
  ("gradient") x sigma x alpha 0.3 and 0.8 x d 1 x n 1025 and 2049;
- bvp-failures: boundary-value solves of the five families (the
  fractional ones at alpha 0.3 and 0.8) x sigma x the same problems x d
  1-2 x n 4, 16, 64 x the same tolerances, with ``max_iter`` 1, and on
  the "-nan" problems, whose initial residual is not finite;
- fractional-evicting: the fractional group's cases on harmonic and
  pendulum at n 4, 16, 64, 130, with public GL operators of another
  order and size (both sides, kernels and adjoints) applied before each
  solve and at every ``Lx`` call ("-evict"), so that the package's memory
  of recent operators holds none of the case's own when it next reads
  one: no outcome may depend on what that memory holds;
- layouts: harmonic (omega 1.5) and the coupled Lagrangian with ``Lv``
  returned Fortran-ordered, flipped (negative strides) and broadcast (zero
  strides), as ``oracles.relaid`` makes them, x sigma x alpha 0.3 and 0.8
  x d 1-3: the fractional, classical and asymmetric ``coherence_report``
  of one seeded trajectory (each one's gap and text) at n 17, 64, 200,
  513, and the fractional cases' outcomes above, both families at tol
  1e-9, at n 17, 64, 160;
- cli: the commands that ``tests/golden/`` runs, in process, from
  ``test_golden.CASES`` (ibp classical and fractional, glcheck,
  coherence, the three convergence studies and solve), and the commands
  of ``CLI_COMMANDS`` that reach the order studies' other branches:
  exact reproduction, each window's FAIL and a fractional order below its
  minimum, a self-referenced study, a ``--config`` run, refused n-lists
  (exit 2), a solver failure (exit 3) and end values of 1e-20, whose
  error stays at 14% of the solution.  No command is known to reach
  convergence's "no observable order" (``test_cli`` patches
  ``_observed_orders`` for it).  And ``ibp``'s refusals, in the order
  they are met: a non-finite and a zero order, a GL scale that overflows
  (alpha 2 at b = 1e-300), and sums that are not finite, classical, at
  alpha = 1 and at alpha 0.999; and a fractional d = 3 run at odd n.  A
  case hashes its exit
  code, stdout and stderr, and the name and bytes of every file it
  writes, with its temporary output directory written as ``{out}``.  The
  goldens compare Newton-solved values to 1e-10 only; this group takes
  every byte.  ``ibp`` prints only its largest gap, to four digits, so a
  rounding change in its sums shows in the operators group, not here:
  the command checks its trials in stacks through the batch core that
  ``check_discrete_ibp`` and ``check_discrete_frac_ibp`` run as a batch
  of one.  A change that moves only stacks of more than one trial shows
  in the operators group, whose three-trial stacks reach that core at
  every order; ``test_fracops`` compares each trial of a stack with its
  pair check, byte for byte.  A case's n is the largest its command
  reads.

One BLAS thread is assumed (``OPENBLAS_NUM_THREADS=1``): a threaded BLAS
may order its sums differently from run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

import fracvi as fv
from fracvi.cli import main as cli_main
from fracvi.fracops import _ibp_sides, frac_seq_minus, frac_seq_plus
from fracvi.schemes import SchemeFamily, SchemeKind, assemble_residual, jacobian
from fracvi.solver import BVPProblem, NewtonConfig, NewtonConvergenceError
from fracvi.solver import march, march_direct_classical, solve_bvp_newton
from oracles import LAYOUTS, coupled_lagrangian, relaid
from test_golden import CASES as CLI_CASES

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
RELAID = [f"{problem}/{layout}" for problem in ("harmonic", "coupled") for layout in LAYOUTS]


#: the cli group's commands, name -> argv: the goldens', then those that
#: reach the order studies' other branches; a command run with ``--config
#: {out}/study.cfg`` reads ``CLI_CONFIG``, whose sigma its flag overrides
CLI_COMMANDS = {name: argv for name, (argv, *_) in CLI_CASES.items()} | {
    "convergence_free_exact": ["convergence", "--problem", "free", "--scheme", "vi",
                               "--n-list", "16,32,64,128", "--out", "{out}/orders.csv"],
    "convergence_self_reference": ["convergence", "--problem", "pendulum", "--scheme", "vi",
                                   "--n-list", "16,32,64,128", "--out", "{out}/orders.csv"],
    "convergence_self_reference_fail": ["convergence", "--problem", "pendulum", "--omega", "5",
                                        "--n-list", "2,4"],
    "convergence_window_fail": ["convergence", "--problem", "harmonic", "--omega", "20",
                                "--n-list", "8,16,32,64"],
    "convergence_direct_window_fail": ["convergence", "--problem", "harmonic", "--scheme",
                                       "direct", "--omega", "20", "--n-list", "8,16,32,64"],
    "convergence_fractional_fail": ["convergence", "--scheme", "vi", "--alpha", "0.3", "--sigma",
                                    "+", "--n-list", "16,32,64,128", "--out", "{out}/orders.csv"],
    "convergence_config": ["convergence", "--config", "{out}/study.cfg", "--sigma", "-",
                           "--n-list", "8,16,32", "--out", "{out}/orders.csv"],
    "convergence_repeated_n": ["convergence", "--scheme", "asymmetric", "--alpha", "0.5",
                               "--n-list", "16,16"],
    "convergence_solver_failure": ["convergence", "--problem", "free", "--scheme", "vi",
                                   "--qa", "1e308", "--qb", "-1e308", "--n-list", "16,32"],
    "convergence_tiny_ends": ["convergence", "--problem", "harmonic", "--qa", "1e-20",
                              "--qb", "1e-20", "--n-list", "16,32,64,128"],
    "glcheck_exact": ["glcheck", "--alpha", "1", "--beta", "1", "--n-list", "64,128,256,512",
                      "--out", "{out}/glcheck.csv"],
    "glcheck_exact_zero": ["glcheck", "--alpha", "1", "--beta", "0", "--n-list", "16,32"],
    "glcheck_window_fail": ["glcheck", "--alpha", "0.5", "--beta", "0.5",
                            "--n-list", "64,128,256,512", "--out", "{out}/glcheck.csv"],
    "glcheck_repeated_n": ["glcheck", "--beta", "-1", "--n-list", "16,16"],
    "ibp_alpha_nan": ["ibp", "--alpha", "nan", "--n", "64"],
    "ibp_alpha_zero": ["ibp", "--alpha", "0", "--n", "64"],
    "ibp_scale_overflow": ["ibp", "--alpha", "2", "--b", "1e-300", "--n", "64"],
    "ibp_classical_sums_overflow": ["ibp", "--b", "1e-305", "--n", "64"],
    "ibp_unit_alpha_sums_overflow": ["ibp", "--alpha", "1", "--b", "1e-306", "--n", "64"],
    "ibp_fractional_sums_overflow": ["ibp", "--alpha", "0.999", "--n", "16", "--b", "1e-307"],
    "ibp_fractional_dim3": ["ibp", "--alpha", "0.3", "--n", "33", "--dim", "3", "--seed", "5"],
}
CLI_CONFIG = """# a fractional study from a file
scheme = direct
alpha = 0.5
sigma = +
seed = 3  # a key convergence does not take
"""


def _largest_n(argv) -> int:
    """The largest n that the command ``argv`` reads from --n or --n-list."""
    return max(int(n) for flag, value in zip(argv, argv[1:]) if flag in ("--n", "--n-list")
               for n in value.split(","))


#: group -> the cases' tuples (family, "march", "operators", "coherence"
#: or "cli", sigma, alpha, problem, d, n, tol), the failure groups' with
#: max_iter last; a march case holds its family in the alpha slot, None for
#: the direct classical one, and a cli case its name in ``CLI_COMMANDS`` in
#: the problem slot
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
        ["operators"], SIGMAS, (None, 0.3, 0.8, 1.0, 1.7), [None], DIMS, (4, 5, 16, 64, 257),
        [None]))
    + list(itertools.product(
        ["operators"], SIGMAS, (0.3, 0.8), ["gradient"], [1], (1025, 2049), [None])),
    "bvp-failures": [
        (family, sigma, alpha, problem + suffix, d, n, tol, max_iter)
        for family, alpha in [*itertools.product(CLASSICAL, [None]),
                              *itertools.product(FRACTIONAL, (0.3, 0.8))]
        for suffix, max_iter in (("", 1), ("-nan", 50))
        for sigma, problem, d, n, tol in itertools.product(
            SIGMAS, PROBLEMS, DIMS, (4, 16, 64), TOLS)
    ],
    "fractional-evicting": list(itertools.product(
        FRACTIONAL, SIGMAS, (0.3, 0.8), ("harmonic-evict", "pendulum-evict"), DIMS,
        (4, 16, 64, 130), TOLS)),
    "layouts": list(itertools.product(
        ["coherence"], SIGMAS, (0.3, 0.8), RELAID, (1, 2, 3), (17, 64, 200, 513), [None]))
    + list(itertools.product(FRACTIONAL, SIGMAS, (0.3, 0.8), RELAID, (1, 2, 3), (17, 64, 160),
                             [1e-9])),
    "cli": [("cli", None, None, name, 1, _largest_n(argv), None)
            for name, argv in CLI_COMMANDS.items()],
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


def _evicting(lag: fv.Lagrangian, n: int):
    """``lag`` with each ``Lx`` call preceded by ``evict()``, and
    ``evict``, which applies the public GL operators of order 0.55 over
    n + 1 positions: both kernels, by the left and right operators, and
    both adjoints, by the functional gradients of both sides."""
    other = fv.sample(np.sin, fv.make_grid(0.0, 1.0, n + 1))
    free = fv.free_particle(1)

    def evict():
        fv.delta_alpha_minus(other, 0.55)
        fv.delta_alpha_plus(other, 0.55)
        for side in SIGMAS:
            fv.functional_gradient(free, other, side, 0.55)

    def Lx(x, v, t):
        evict()
        return lag.Lx(x, v, t)

    return dataclasses.replace(lag, Lx=Lx), evict


def _operators(rng, sigma, alpha, d, n) -> list:
    """The operators' values and window starts on one seeded trajectory,
    the rectangle rule of its velocity, and both sides of the integration
    by parts on two more (F zero at the ends if alpha), then on a stack of
    three trials more through the batch core ``fracvi ibp`` runs."""
    grid = fv.make_grid(0.0, 1.0, n)
    values = rng.uniform(-2.0, 2.0, (3, n + 1, d))
    stack = rng.uniform(-2.0, 2.0, (2, 3, n + 1, d))  # F and G of three trials
    if alpha is not None:
        values[1, [0, -1]] = 0.0  # the fractional identity has no boundary term
        stack[0, :, [0, -1]] = 0.0
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
                                       np.array(sides), np.array(_ibp_sides(grid, alpha)(*stack))]


def _cli(name: str) -> list:
    """The exit code, stdout and stderr of the command ``name``, run in
    process with its outputs in a temporary directory, and the name and
    bytes of each file there after it ran; the directory reads ``{out}``."""
    with tempfile.TemporaryDirectory() as out:
        argv = [arg.replace("{out}", out) for arg in CLI_COMMANDS[name]]
        if "--config" in argv:
            Path(out, "study.cfg").write_text(CLI_CONFIG)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        parts = [str(code), stdout.getvalue().replace(out, "{out}"),
                 stderr.getvalue().replace(out, "{out}")]
        for path in sorted(Path(out).iterdir()):
            parts += [path.name, path.read_bytes()]
    return parts


def outcome(case) -> list:
    """The outcome of one case: a list of arrays, strings and bytes."""
    family, sigma, alpha, problem, d, n, tol, *max_iter = case
    if family == "cli":
        return _cli(problem)
    rng = _rng(case)
    if family == "operators" and problem == "gradient":
        q = fv.Trajectory(fv.make_grid(0.0, 1.0, n), rng.uniform(-2.0, 2.0, (n + 1, d)))
        return [fv.functional_gradient(fv.harmonic_oscillator(1.5), q, sigma, alpha).values]
    if family == "operators":
        return _operators(rng, sigma, alpha, d, n)
    name, _, layout = problem.partition("/")
    name = name.removesuffix("-nan").removesuffix("-cli").removesuffix("-evict")
    if name == "coupled":
        lag = coupled_lagrangian(d)
    else:
        lag = fv.builtin_problem(name, omega=1.5, dim=d)
    if layout:
        lag = relaid(lag, layout)
    if problem.endswith("-nan"):
        lag = _nan_past_half(lag)
    if problem.endswith("-evict"):
        lag, evict = _evicting(lag, n)
        evict()
    grid = fv.make_grid(0.0, 1.0, n)
    if family == "coherence":
        q = fv.Trajectory(grid, rng.uniform(-2.0, 2.0, (n + 1, d)))
        reports = [fv.coherence_report(lag, q, sigma, alpha)]
        reports += [fv.coherence_report(lag, q, sigma, kind=kind)
                    for kind in ("classical", "asymmetric")]
        return [part for rep in reports for part in (np.float64(rep.gap), rep.text())]
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
    if alpha is None:
        velocity = fv.discrete_velocity(q, sigma)
    else:
        velocity = fv.discrete_velocity_alpha(q, sigma, alpha)
    return parts + [
        assemble_residual(kind, lag, q).values,
        jacobian(kind, lag, q),
        fv.functional_gradient(lag, q, sigma, alpha).values,
        np.float64(fv.discrete_functional(lag, q, sigma, alpha)),
        velocity.values,
    ]


def _bytes(part) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, str):
        return part.encode()
    part = np.asarray(part)
    return repr((part.dtype.str, part.shape)).encode() + part.tobytes()


#: a number in a message, which a record's kind masks as "#"
_NUMBER = re.compile(r"\d+(\.\d+)?(e[-+]?\d+)?")


def _kind(case, parts) -> str | None:
    """A case's kind of outcome, with every number masked as "#": a solve's
    is "converged" or its failure message, a cli command's its exit code
    and its last line of output but "wrote ..." (stdout, else stderr); any
    other case has none."""
    if case[0] == "cli":
        code, stdout, stderr = parts[:3]
        said = [line for line in (stdout or stderr).splitlines() if not line.startswith("wrote ")]
        return f"exit {code}: " + _NUMBER.sub("#", said[-1] if said else "")
    if case[0] in ("operators", "coherence"):
        return None
    return _NUMBER.sub("#", parts[1]) if parts[1] else "converged"


def _label(case) -> str:
    return " ".join(getattr(field, "value", str(field)) for field in case)


def case_records(groups, max_n: int | None = None) -> dict[str, tuple[str, list]]:
    """group -> its line and its records, over the cases with n <= max_n,
    for each group of ``groups`` in turn.  The line is the group, its case
    count and one sha256 over each case's repr and its outcome's bytes; a
    record is a case's label, the sha256 of its outcome, its kind and its
    solution (None unless it converged)."""
    out = {}
    for group in groups:
        digest, records = hashlib.sha256(), []
        for case in GROUPS[group]:
            if max_n is not None and case[5] > max_n:
                continue
            parts = outcome(case)
            data = b"".join(map(_bytes, parts))
            digest.update(repr(case).encode() + data)
            kind = _kind(case, parts)
            records.append((_label(case), hashlib.sha256(data).hexdigest(), kind,
                            parts[0] if kind == "converged" else None))
        out[group] = (f"{group} {len(records)} cases sha256 {digest.hexdigest()}", records)
    return out


def movement(group: str, mine: list, theirs: list) -> list[str]:
    """Lines on how the records ``theirs`` of one group moved to ``mine``:
    none if no case differs."""
    differ, largest, relative, flips, most = 0, 0.0, 0.0, [], ""
    for (label, digest, kind, x), (_, their_digest, their_kind, y) in zip(mine, theirs):
        differ += digest != their_digest
        if kind != their_kind:
            flips.append(f"  {group}: {label}: {their_kind} -> {kind}")
        elif x is not None and y is not None:
            change = float(np.max(np.abs(x - y)))
            if change > largest:
                largest, most = change, f" at {label}"
            relative = max(relative, change / max(float(np.max(np.abs(y))), 1e-300))
    if not differ:
        return []
    return [f"  {group}: {differ} of {len(mine)} cases differ, {len(flips)} flip their kind; "
            f"a solution converged on both moves by at most {largest:.2e}{most} "
            f"({relative:.2e} relative)", *flips]


#: the other tree's pass: this module's ``case_records`` of the groups
#: ``sys.argv[2:]`` at the max_n ``sys.argv[1]`` (JSON), pickled to stdout
_OTHER_PASS = ("import bitcheck, json, pickle, sys; pickle.dump(bitcheck.case_records("
               "sys.argv[2:], json.loads(sys.argv[1])), sys.stdout.buffer)")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("max_n", type=int, nargs="?", help="drop the cases with a larger n")
    parser.add_argument("--group", action="append", choices=GROUPS,
                        help="run only this group (repeatable)")
    parser.add_argument("--against", metavar="OTHER", help="a checkout to compare with")
    args = parser.parse_args(argv)
    selected = [group for group in GROUPS if args.group is None or group in args.group]
    if args.against is not None:
        src = os.path.abspath(os.path.join(args.against, "src"))
        package = os.path.join(src, "fracvi", "__init__.py")
        if not os.path.isfile(package):
            parser.error(f"--against {args.against}: no fracvi package at {package}")
        # the other tree's pass runs while this one's does, with this script
        # importable after the other tree's package; it runs in OTHER/src,
        # the directory that ``-c`` puts first on its path
        path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
        other = subprocess.Popen(
            [sys.executable, "-c", _OTHER_PASS, json.dumps(args.max_n), *selected],
            stdout=subprocess.PIPE, cwd=src, env=dict(os.environ, PYTHONPATH=path))
    mine = case_records(selected, args.max_n)
    print("\n".join(line for line, _ in mine.values()))
    if args.against is None:
        return 0
    theirs = other.communicate()[0]
    if other.returncode:
        print(f"bitcheck on {args.against} exited {other.returncode}")
        return 2
    theirs = pickle.loads(theirs)
    differing = [group for group in selected if mine[group][0] != theirs[group][0]]
    for group in differing:
        print(f"differs from {args.against}: {theirs[group][0]}")
        for detail in movement(group, mine[group][1], theirs[group][1]):
            print(detail)
    print(f"{len(selected) - len(differing)} of {len(selected)} groups agree with {args.against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
