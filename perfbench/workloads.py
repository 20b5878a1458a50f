"""Workload definitions: seeded op lists and the correctness check of each op.

An op is one call of a public entry point: ``solve_bvp_newton`` on one
boundary-value problem, or one in-process ``fracvi.cli.main(argv)``.  A
workload is an endless sequence of cycles.  Every cycle has the same
composition (scheme family, problem and size per slot); choices that change
an op's cost a lot (alpha in ``frac-bvp``, the problem at the larger sizes
of ``classical-bvp``) rotate with the cycle index.  The other inputs that
change an op's cost (pendulum inputs, the CLI's parameters) walk their
ranges from a seeded start (``Walk``), except at the costliest sizes,
where every seed walks the same inputs (``SHARED_WALK_SEED``); the seed
draws the rest.  A run is a fixed number of whole cycles, so every run
measures the same mix, and the same seed gives the same ops.

Checks run after the op's timer has stopped.  A failed check marks the op
as failed and the run as incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fracvi
import fracvi.cli
from fracvi.lagrangians import functional_gradient
from fracvi.schemes import (
    SchemeFamily,
    SchemeKind,
    assemble_residual,
    residual_asymmetric_direct,
    residual_direct_fractional,
    residual_vi_classical,
)
from fracvi.solver import (
    BVPProblem,
    NewtonConfig,
    NewtonConvergenceError,
    SingularMatrixError,
)

#: Residual targets: the CLI's fractional default and the ``convergence``
#: command's classical target.
FRAC_TOL = 1e-10
CLASSICAL_TOL = 1e-9

#: Cross-route residuals must stay within this multiple of the solve
#: tolerance; the two assemblies agree to rounding, which is far below it.
ROUTE_SLACK = 2.0

#: Closed-form error bounds per unit amplitude: the variational integrator
#: is second order, the direct scheme and marching are first order.  Both
#: problems are linear, so the error scales with the solution's amplitude.
VI_ERROR_PER_H2 = 1.0
DIRECT_ERROR_PER_H = 4.0


class CheckFailed(AssertionError):
    """An op returned, but its output is wrong."""


@dataclass
class Context:
    """What an op needs from the run: how to build the Lagrangian, how to
    call the solver, the CLI's scratch directory, and the tracer if any."""

    workdir: Path
    tracer: object | None = None

    def lagrangian(self, problem: str, omega: float):
        lag = fracvi.builtin_problem(problem, omega=omega)
        return lag if self.tracer is None else self.tracer.traced_lagrangian(lag)

    def solve(self, bvp, config):
        return fracvi.solver.solve_bvp_newton(bvp, config=config)

    def checking(self):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.paused()


@dataclass
class Outcome:
    ok: bool
    value: object = None
    error: str = ""


# --------------------------------------------------------------------------
# boundary-value ops


def harmonic_exact(omega: float, qa: float, qb: float):
    """Closed-form solution on [0, 1] and its amplitude."""
    coef = (qb - qa * math.cos(omega)) / math.sin(omega)
    return (lambda t: qa * np.cos(omega * t) + coef * np.sin(omega * t)), math.hypot(qa, coef)


@dataclass(frozen=True)
class BvpOp:
    family: SchemeFamily
    problem: str
    n: int
    sigma: int
    omega: float
    qa: float
    qb: float
    tol: float
    alpha: float | None = None

    @property
    def label(self) -> str:
        alpha = "" if self.alpha is None else f" alpha={self.alpha:g}"
        return (
            f"{self.family.value} {self.problem} n={self.n} sigma={self.sigma:+d}"
            f"{alpha} omega={self.omega!r} qa={self.qa!r} qb={self.qb!r}"
        )

    def execute(self, ctx: Context) -> Outcome:
        lag = ctx.lagrangian(self.problem, self.omega)
        kind = SchemeKind(self.family, self.sigma, self.alpha)
        bvp = BVPProblem(fracvi.make_grid(0.0, 1.0, self.n), lag, kind, [self.qa], [self.qb])
        try:
            traj, _ = ctx.solve(bvp, NewtonConfig(tol=self.tol))
        except (NewtonConvergenceError, SingularMatrixError) as exc:
            return Outcome(False, error=str(exc))
        return Outcome(True, traj)

    def check(self, traj) -> None:
        """Raise CheckFailed unless ``traj`` solves this op's problem."""
        vals = traj.values
        if vals.shape != (self.n + 1, 1) or not np.all(np.isfinite(vals)):
            raise CheckFailed(f"bad solution array {vals.shape}")
        if vals[0, 0] != self.qa or vals[-1, 0] != self.qb:
            raise CheckFailed("boundary values not kept")
        lag = fracvi.builtin_problem(self.problem, omega=self.omega)
        fam = self.family
        if fam is SchemeFamily.VARIATIONAL_FRACTIONAL:
            # the paper's coherence claim: the direct assembly, which the
            # solver did not use, is zero on the variational solution
            other = residual_direct_fractional(lag, traj, self.sigma, self.alpha)
            self._small(other, "direct-fractional residual")
        elif fam is SchemeFamily.DIRECT_FRACTIONAL:
            other = functional_gradient(lag, traj, self.sigma, self.alpha)
            self._small(other, "variational gradient")
        elif fam is SchemeFamily.ASYMMETRIC_DIRECT:
            self._small(residual_vi_classical(lag, traj, self.sigma), "vi-classical residual")
        elif self.problem == "harmonic":
            exact, amp = harmonic_exact(self.omega, self.qa, self.qb)
            h = 1.0 / self.n
            err = float(np.max(np.abs(vals[:, 0] - exact(traj.grid.nodes))))
            if fam is SchemeFamily.VARIATIONAL_CLASSICAL:
                bound = VI_ERROR_PER_H2 * amp * h * h
            else:
                bound = DIRECT_ERROR_PER_H * amp * h
            if not err <= bound:
                raise CheckFailed(f"closed-form error {err:.3e} above {bound:.3e}")
        elif fam is SchemeFamily.VARIATIONAL_CLASSICAL:
            self._small(residual_asymmetric_direct(lag, traj, self.sigma), "asymmetric residual")
        else:
            kind = SchemeKind(fam, self.sigma)
            self._small(assemble_residual(kind, lag, traj), "residual")

    def _small(self, field_, what: str) -> None:
        norm = float(np.max(np.abs(field_.values)))
        if not norm <= ROUTE_SLACK * self.tol:
            raise CheckFailed(f"{what} {norm:.3e} above {ROUTE_SLACK:g} x tol {self.tol:.1e}")


def _draw(rng) -> dict:
    qa, qb = rng.uniform(-1.0, 1.0, 2)
    return {
        "sigma": int(rng.choice((-1, 1))),
        "omega": float(rng.uniform(0.5, 2.0)),
        "qa": float(qa),
        "qb": float(qb),
    }


#: A fractional solve that stalls at this commit.  With alpha <= 0.5 and
#: omega above ~1.1, Newton from the straight-line guess stalls far from a
#: root on a few percent of pendulum draws (ROADMAP items 2 and 4); this
#: one stalls at iteration 19 with residual ~0.07.  Random draws hit that
#: corner too, but too rarely to weigh the same in every run, so this op
#: is a fixed slot of every cycle: a fix or a worsening of such stalls
#: moves ``ops_per_s`` and the failure count of every run alike.
STALL = BvpOp(
    SchemeFamily.VARIATIONAL_FRACTIONAL, "pendulum", 64,
    sigma=1, omega=1.7, qa=0.6, qb=-0.6, tol=FRAC_TOL, alpha=0.3,
)


#: Steps of the low-discrepancy sequence that walks a slot's continuous
#: inputs: powers of 1/g, g the real root of x**4 = x + 1 (Roberts' R3
#: sequence, the 3-d golden ratio).
_G = 1.2207440846057596
KRONECKER = np.array([_G**-1, _G**-2, _G**-3])


class Walk:
    """Inputs whose cost matters, for every slot of cycle ``index``.

    Drawing them independently per op would let a run's cost hang on a few
    draws.  Instead each slot starts at a seeded point and walks its input
    box evenly from cycle to cycle: the continuous inputs (omega, qa, qb)
    along a low-discrepancy sequence, and each categorical choice in turn,
    from a seeded first option.  Every run then sees nearly the same mix,
    and over a run each input still covers its whole range.
    """

    SLOTS = 32

    def __init__(self, seed: int, index: int):
        self.start = np.random.default_rng(seed).random((self.SLOTS, 6))
        self.index = index

    def point(self, slot: int) -> np.ndarray:
        """Three numbers in [0, 1) for this slot and cycle."""
        return (self.start[slot, :3] + self.index * KRONECKER) % 1.0

    def pick(self, slot: int, options, which: int = 0):
        """Choice ``which`` (0 to 2) of this slot, one option per cycle."""
        first = int(self.start[slot, 3 + which] * len(options))
        return options[(first + self.index) % len(options)]

    def draw(self, slot: int) -> dict:
        """A BvpOp's sigma, omega ~ U(0.5, 2) and qa, qb ~ U(-1, 1)."""
        u = self.point(slot)
        return {
            "sigma": self.pick(slot, (-1, 1)),
            "omega": float(0.5 + 1.5 * u[0]),
            "qa": float(2.0 * u[1] - 1.0),
            "qb": float(2.0 * u[2] - 1.0),
        }


#: Seed of the walk that the costliest pendulum slots (those above the
#: smallest size) take in every run.  One such solve takes from a tenth to
#: a fifth of a run, its cost depends steeply on its inputs, and a run has
#: a few of them, so seeded inputs there moved a run's ops_per_s by 10-15%
#: from seed to seed.  With the same inputs for every seed those slots do
#: the same work in every run; the many small solves still vary by seed.
SHARED_WALK_SEED = 0


def frac_cycle(rng, walk: Walk, shared: Walk, sizes) -> list:
    """Both families and both problems with every alpha at the smallest n,
    every (family, problem) pair once at the middle n, one harmonic solve
    per family at the largest n, then ``STALL``.  Alpha changes the Newton
    iteration count, so at the larger sizes it rotates with the cycle
    index: the cost of a run then does not depend on the seed.  The many
    small solves give each run enough samples for its median.

    Pendulum cost grows steeply with omega and the boundary values, so
    pendulum inputs come from ``walk`` (``shared`` at the middle n): every
    run covers the input box evenly, the stall corner included, and its
    cost and its latency percentiles do not hang on a few draws.  Harmonic
    cost does not depend on the inputs, which are drawn from ``rng``.  At n = 256 a pendulum
    solve takes 1 to 7 s by its inputs, up to a fifth of a run, so the
    largest size is harmonic only; the GL kernels and the Jacobian cost the
    same per iteration for both problems."""
    small, mid, large = sizes
    index = walk.index
    alphas = (0.3, 0.5, 0.8)
    fams = (SchemeFamily.VARIATIONAL_FRACTIONAL, SchemeFamily.DIRECT_FRACTIONAL)
    problems = ("harmonic", "pendulum")
    slots = [(f, p, small, a) for f in fams for p in problems for a in alphas]
    slots += [(f, p, mid, alphas[(index + 2 * i + j) % 3]) for i, f in enumerate(fams) for j, p in enumerate(problems)]
    slots += [(f, "harmonic", large, alphas[(index + i) % 3]) for i, f in enumerate(fams)]
    ops = []
    for k, (family, problem, n, alpha) in enumerate(slots):
        if problem == "pendulum":
            draw = (walk if n == small else shared).draw(k)
        else:
            draw = _draw(rng)
        ops.append(BvpOp(family, problem, n, tol=FRAC_TOL, alpha=alpha, **draw))
    return ops + [STALL]


def classical_cycle(rng, walk: Walk, shared: Walk, sizes) -> list:
    """Every family with both problems and both sigmas at the smallest n,
    one problem per family at the middle n, and one vi-classical solve at
    the largest n (where the dense linear solve's share shows).  Those
    problems alternate from cycle to cycle.  The many small solves give
    each run enough samples for its tail.  As in ``frac_cycle``, pendulum
    inputs come from ``walk`` (``shared`` above the smallest n) and
    harmonic ones from ``rng``."""
    index = walk.index
    fams = (
        SchemeFamily.VARIATIONAL_CLASSICAL,
        SchemeFamily.DIRECT_CLASSICAL,
        SchemeFamily.ASYMMETRIC_DIRECT,
    )
    small, mid, large = sizes
    slots = [(f, p, s, small) for f in fams for p in ("harmonic", "pendulum") for s in (-1, 1)]
    problems = ("harmonic", "pendulum")
    slots += [(f, problems[(index + i) % 2], None, mid) for i, f in enumerate(fams)]
    slots += [(SchemeFamily.VARIATIONAL_CLASSICAL, problems[index % 2], None, large)]
    ops = []
    for k, (fam, problem, sigma, n) in enumerate(slots):
        if problem == "pendulum":
            draw = (walk if n == small else shared).draw(k)
        else:
            draw = _draw(rng)
        draw["sigma"] = sigma or draw["sigma"]
        ops.append(BvpOp(fam, problem, n, tol=CLASSICAL_TOL, **draw))
    return ops


# --------------------------------------------------------------------------
# CLI ops


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    #: for ``solve``: the same problem as a BvpOp, whose check the written
    #: solution must pass
    solve_spec: BvpOp | None = None

    @property
    def label(self) -> str:
        return "fracvi " + " ".join(self.argv)

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def execute(self, ctx: Context) -> Outcome:
        """A solver stall (exit 3) is a failed op; any other exit code is
        left to ``check``, which accepts only 0."""
        out, err = io.StringIO(), io.StringIO()
        span = (
            contextlib.nullcontext()
            if ctx.tracer is None
            else ctx.tracer.span(f"cli.main.{self.subcommand}")
        )
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fracvi.cli.main(list(self.argv))
        if code == fracvi.cli.EXIT_SOLVER:
            lines = err.getvalue().splitlines()
            return Outcome(False, error=f"exit {code}: {lines[-1] if lines else ''}")
        return Outcome(True, CliResult(code, out.getvalue(), err.getvalue()))

    def check(self, result: CliResult) -> None:
        lines = result.stdout.strip().splitlines()
        if result.code != 0:
            # exit 1 is the command's own check failing (a coherence, ibp,
            # glcheck or order-study FAIL): a wrong result, not a stall
            said = [ln for ln in lines if "FAIL" in ln] or result.stderr.splitlines()
            raise CheckFailed(f"exit {result.code}: {said[-1] if said else ''}")
        if self.subcommand == "solve":
            self._check_solve(lines)
            return
        verdicts = [ln for ln in lines if ln.endswith("PASS") or ln.endswith("FAIL") or "FAIL (" in ln]
        if not verdicts or not verdicts[-1].endswith("PASS"):
            raise CheckFailed(f"no PASS line in {lines[-2:]}")
        if self.subcommand == "convergence" and "--scheme" in self.argv:
            scheme = self.argv[self.argv.index("--scheme") + 1]
            if scheme == "direct":
                self._check_marching()

    def _out_path(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])

    def _check_marching(self) -> None:
        """Marching errors against the closed form at O(h)."""
        omega = float(self.argv[self.argv.index("--omega") + 1])
        qa = 1.0  # the command's harmonic defaults
        qb = math.cos(omega) + 0.5 * math.sin(omega)
        _, amp = harmonic_exact(omega, qa, qb)
        rows = np.loadtxt(self._out_path(), delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
        for h, err in rows:
            if not err <= DIRECT_ERROR_PER_H * amp * h:
                raise CheckFailed(f"marching error {err:.3e} at h={h:.3e} not O(h)")

    def _check_solve(self, lines) -> None:
        if not lines or not lines[0].startswith("solved "):
            raise CheckFailed(f"unexpected solve output {lines[:1]}")
        traj = fracvi.read_trajectory_csv(self._out_path())
        if traj.grid.n != self.solve_spec.n:
            raise CheckFailed(f"solution CSV has n={traj.grid.n}")
        self.solve_spec.check(traj)


def _num(x: float) -> str:
    return repr(float(x))


def cli_cycle(rng, walk: Walk, shared: Walk, sizes, workdir: Path) -> list:
    """The README command set with seeded parameters.

    ``solve`` runs at the CLI's own default tolerance (1e-12 classical,
    1e-10 fractional) with n up to 256, and the marching study goes up to
    n = 8192.  Both hit the double-precision floor on some inputs and exit
    3; those exits are counted as failures and named in the report.
    The fractional order study keeps the default sigma = - and draws alpha
    in {0.8, 0.9}, and glcheck draws beta in {1, 2}: lower alpha, sigma = +
    (observed orders near 0.55) and non-smooth monomials fall outside the
    commands' order windows by design (exit 1, as the README documents).
    Within these ranges every command's own check should pass, so an
    exit 1 is a wrong result and makes the run incorrect.

    Inputs that change an op's cost come from ``walk`` (slot = the op's
    position in the cycle), those of the largest classical solves from
    ``shared``; ``rng`` gives the commands' own seeds.
    """
    out = lambda name: str(workdir / name)
    sig = lambda slot: walk.pick(slot, ("+", "-"))
    omega = lambda slot: _num(0.5 + 1.5 * walk.point(slot)[0])
    ops = [
        CliOp(("convergence", "--problem", "harmonic", "--scheme", "vi", "--sigma", sig(0),
               "--omega", omega(0), "--n-list", sizes["vi"], "--out", out("conv_vi.csv"))),
        CliOp(("convergence", "--problem", walk.pick(1, ("harmonic", "pendulum")),
               "--scheme", "vi", "--alpha", walk.pick(1, ("0.8", "0.9"), 1),
               "--omega", omega(1), "--n-list", sizes["frac"], "--out", out("conv_frac.csv"))),
        CliOp(("convergence", "--problem", "harmonic", "--scheme", "direct",
               "--omega", omega(2), "--n-list", sizes["direct"], "--out", out("conv_direct.csv"))),
        CliOp(("coherence", "--problem", walk.pick(3, ("harmonic", "pendulum")),
               "--alpha", walk.pick(3, ("0.3", "0.5", "0.8"), 1), "--sigma", sig(3),
               "--n", str(sizes["n"]), "--seed", str(int(rng.integers(1 << 30))),
               "--out", out("coherence.csv"))),
        CliOp(("glcheck", "--alpha", walk.pick(4, ("0.3", "0.5", "0.8")),
               "--beta", walk.pick(4, ("1", "2"), 1), "--n-list", sizes["gl"], "--out", out("glcheck.csv"))),
        CliOp(("ibp", "--n", str(sizes["n"]), "--trials", "50", "--seed", str(int(rng.integers(1 << 30))))),
        CliOp(("ibp", "--alpha", walk.pick(6, ("0.3", "0.5", "0.8")), "--n", str(sizes["n"]),
               "--trials", "50", "--seed", str(int(rng.integers(1 << 30))))),
    ]
    solves = [(p, n, None) for p in ("harmonic", "pendulum") for n in sizes["solve"]]
    last = len(ops) + len(solves)
    solves.append((walk.pick(last, ("harmonic", "pendulum"), 1), sizes["frac_solve"], walk.pick(last, (0.3, 0.5, 0.8), 2)))
    for slot, (problem, n, alpha) in enumerate(solves, start=len(ops)):
        if alpha is None:
            draw = (shared if n == max(sizes["solve"]) else walk).draw(slot)
            spec = BvpOp(SchemeFamily.VARIATIONAL_CLASSICAL, problem, n, tol=1e-12, **draw)
        else:
            spec = BvpOp(SchemeFamily.VARIATIONAL_FRACTIONAL, problem, n, tol=1e-10, alpha=alpha, **walk.draw(slot))
        argv = ["solve", "--problem", problem, "--n", str(n), "--sigma", "+" if spec.sigma > 0 else "-",
                "--omega", _num(spec.omega), "--qa", _num(spec.qa), "--qb", _num(spec.qb),
                "--out", out("solution.csv")]
        if alpha is not None:
            argv += ["--alpha", str(alpha)]
        ops.append(CliOp(tuple(argv), solve_spec=spec))
    return ops


SIZES = {
    "frac-bvp": (64, 128, 256),
    "classical-bvp": (128, 256, 512),
    "cli-study": {
        "vi": "16,32,64,128",
        "frac": "8,16,32",
        "direct": "1024,2048,4096,8192",
        "gl": "64,128,256,512",
        "n": 64,
        "solve": (64, 128, 256),
        "frac_solve": 128,
    },
}

#: Sizes for the harness tests: the same cycles, small enough to run in
#: a few seconds.
TINY = {
    "frac-bvp": (16, 24, 32),
    "classical-bvp": (16, 24, 32),
    "cli-study": {
        "vi": "16,32",
        "frac": "8,16",
        "direct": "64,128",
        "gl": "64,128",
        "n": 16,
        "solve": (16, 24, 32),
        "frac_solve": 16,
    },
}


def make_cycle(workload: str, seed: int, index: int, workdir: Path, tiny: bool = False) -> list:
    """Ops of cycle ``index``; the same (seed, index) gives the same ops."""
    rng = np.random.default_rng([seed, index])
    sizes = (TINY if tiny else SIZES)[workload]
    walks = Walk(seed, index), Walk(SHARED_WALK_SEED, index)
    if workload == "frac-bvp":
        return frac_cycle(rng, *walks, sizes)
    if workload == "classical-bvp":
        return classical_cycle(rng, *walks, sizes)
    return cli_cycle(rng, *walks, sizes, workdir)


#: ROADMAP baseline: harmonic vi-fractional, alpha 0.5, sigma -1, n 256,
#: qa 0, qb 1 took 2 Newton iterations and 513 residual evaluations.
PINNED = BvpOp(
    SchemeFamily.VARIATIONAL_FRACTIONAL, "harmonic", 256,
    sigma=-1, omega=1.0, qa=0.0, qb=1.0, tol=FRAC_TOL, alpha=0.5,
)
