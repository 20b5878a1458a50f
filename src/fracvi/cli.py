"""Command-line experiments over the library.

Subcommands: ``ibp`` (randomized integration-by-parts identity checks),
``coherence`` (direct-embedding vs variational residual gaps), ``convergence``
(order studies against exact or fine-grid references), ``solve`` (one
boundary-value solve with CSV export), and ``glcheck`` (discrete fractional
derivative of monomials against the closed form).

Every flag's name, type and default is stated once, in :func:`build_parser`;
``fracvi <cmd> --help`` lists them with their defaults.  Each subcommand's
handler is its ``run_*`` function; it takes its flags' values, ``--config`` aside.
A plain ``key=value`` file can be supplied with ``--config``: keys are flag
names (with ``-`` or ``_``), values are parsed exactly like flags, keys the
subcommand does not take are ignored, and explicit flags win.

Exit codes: 0 all checks pass, 1 check violation, 2 usage error, 3 solver
failure, 141 stdout closed before the report was written (128 + SIGPIPE,
the code a shell gives a process that signal ends).  Every command is
deterministic; ``ibp`` and ``coherence`` draw random trajectories, from
``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from .fracops import _check_alpha, _ibp_sides, delta_alpha_minus
# run_ibp calls neither pair check; perfbench/tracer.py patches both here
from .fracops import check_discrete_frac_ibp, check_discrete_ibp  # noqa: F401
from .fracops import rl_monomial_derivative
from .grids import (
    MINUS,
    PLUS,
    DomainError,
    Trajectory,
    _fmt,
    _write_csv,
    check_endpoints,
    check_size,
    make_grid,
    sample,
    sigma_label,
    write_trajectory_csv,
)
from .lagrangians import BUILTIN_PROBLEMS, builtin_problem
from .schemes import (
    SchemeFamily,
    SchemeKind,
    coherence_report,
)
from .solver import (
    BVPProblem,
    NewtonConfig,
    NewtonConvergenceError,
    SingularMatrixError,
    march_direct_classical,
    solve_bvp_newton,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_CLOSED_STDOUT = 141

CLASSICAL_IBP_RTOL = 1e-12
FRACTIONAL_IBP_RTOL = 1e-10
IBP_BLOCK_BYTES = 1 << 16  # the draws of one block of ibp trials, so memory is flat in --trials
_FRACTIONAL_SOLVE_TOL = 1e-10  # solve's default --tol; a classical solve takes NewtonConfig.tol

#: Observed-order acceptance windows per scheme.
VI_ORDER_WINDOW = (1.8, 2.2)
DIRECT_ORDER_WINDOW = (0.7, 1.3)
FRACTIONAL_MIN_ORDER = 0.7
GLCHECK_ORDER_WINDOW = (0.7, 1.3)

#: An order study whose every error is at most this level times the size
#: of its reference at that n is exact reproduction, exempt from order checks.
EXACT_FLOOR = 1e-12


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _sigma(text: str) -> int:
    if text == "+":
        return PLUS
    if text == "-":
        return MINUS
    raise argparse.ArgumentTypeError(f"sigma must be '+' or '-', got {text!r}")


def _integer_from(low: int, what: str):
    """The flag type of an integer of at least ``low``, named ``what``."""

    def convert(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return convert


_count = _integer_from(1, "a positive integer")
_seed = _integer_from(0, "a non-negative integer")  # numpy's seeds


def _finish(ok: bool, lines: list[str], out, header: list[str], rows):
    """The end of a check: write ``rows`` under ``header`` to ``out`` when one
    is given, and exit 0 if the check passed, 1 if not."""
    if out is not None:
        _write_csv(out, header, rows)
        lines.append(f"wrote {out}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), lines


def load_config(path) -> dict[str, str]:
    """Read a plain key=value file; '#' starts a comment."""
    cfg: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"config file {path} is not UTF-8 text: {exc}") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"bad config line (need key=value): {raw.strip()!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


# --------------------------------------------------------------------------
# ibp


def run_ibp(
    n: int,
    trials: int,
    seed: int,
    alpha: float | None,
    a: float,
    b: float,
    dim: int,
) -> tuple[int, list[str]]:
    """Randomized two-sided evaluation of the integration-by-parts identity.

    The trials are drawn and checked in blocks of ``IBP_BLOCK_BYTES`` of
    draws, each block one call of the batch core the pair checks share."""
    check_size(n, dim)
    rng = np.random.default_rng(seed)
    grid = make_grid(a, b, n)
    alpha = None if alpha is None else _check_alpha(alpha)  # before the GL scale is taken
    rtol = CLASSICAL_IBP_RTOL if alpha is None else FRACTIONAL_IBP_RTOL
    sides = _ibp_sides(grid, alpha)
    block = max(1, IBP_BLOCK_BYTES // (2 * (n + 1) * dim * 8))  # F and G of a trial
    worst = 0.0
    failures = 0
    for done in range(0, trials, block):
        # trial by trial, F then G: the stream one draw per array would take
        fg = rng.standard_normal((min(block, trials - done), 2, n + 1, dim))
        if alpha is not None:
            fg[:, 0, [0, -1]] = 0.0  # the fractional identity has no boundary term
        for lhs, rhs in sides(fg[:, 0], fg[:, 1]):
            gap = abs(lhs - rhs) / (1.0 + abs(lhs))
            worst = max(worst, gap)
            if gap > rtol:
                failures += 1
    label = "classical" if alpha is None else f"fractional alpha={alpha:g}"
    status = "PASS" if failures == 0 else f"FAIL ({failures}/{trials})"
    lines = [
        f"ibp {label}: n={n} trials={trials} "
        f"max gap {worst:.3e} (tol {rtol:.1e}) -> {status}"
    ]
    return (EXIT_OK if failures == 0 else EXIT_CHECK_FAILED), lines


# --------------------------------------------------------------------------
# coherence

COHERENCE_HEADER = ["scheme", "sigma", "alpha", "N", "gap", "verdict"]


def run_coherence(
    problem: str,
    omega: float,
    sigma: int,
    alpha: float | None,
    n: int,
    seed: int,
    dim: int,
    a: float,
    b: float,
    out=None,
) -> tuple[int, list[str]]:
    """Emit one coherence row per embedding kind.

    The classical row uses the cubic witness Q_k = k^3 on a unit-step grid,
    where the direct and variational stencils differ by a constant 6; the
    asymmetric and fractional rows use a seeded random trajectory.
    """
    check_size(n, dim)
    lag = builtin_problem(problem, omega=omega, dim=dim)
    rng = np.random.default_rng(seed)
    reports = []

    witness_grid = make_grid(0.0, float(n), n)
    cubic = np.arange(n + 1, dtype=float) ** 3
    witness = Trajectory(witness_grid, np.tile(cubic[:, None], (1, dim)))
    reports.append(coherence_report(lag, witness, sigma, kind="classical"))

    grid = make_grid(a, b, n)
    random_q = Trajectory(grid, rng.standard_normal((n + 1, dim)))
    reports.append(coherence_report(lag, random_q, sigma, kind="asymmetric"))
    if alpha is not None:
        reports.append(coherence_report(lag, random_q, sigma, alpha=alpha))

    ok = (
        not reports[0].coherent
        and reports[0].gap > 0.1
        and all(rep.coherent for rep in reports[1:])
    )
    lines = [rep.text() for rep in reports]
    lines.append("coherence: PASS" if ok else "coherence: FAIL")
    return _finish(ok, lines, out, COHERENCE_HEADER, (rep.csv_row() for rep in reports))


# --------------------------------------------------------------------------
# convergence

CONVERGENCE_HEADER = ["N", "h", "error", "observed_order"]

#: (--scheme, fractional?) -> family; a missing pair takes no alpha
_FAMILIES = {
    ("direct", False): SchemeFamily.DIRECT_CLASSICAL,
    ("direct", True): SchemeFamily.DIRECT_FRACTIONAL,
    ("vi", False): SchemeFamily.VARIATIONAL_CLASSICAL,
    ("vi", True): SchemeFamily.VARIATIONAL_FRACTIONAL,
    ("asymmetric", False): SchemeFamily.ASYMMETRIC_DIRECT,
}
_SCHEME_CHOICES = tuple(dict.fromkeys(scheme for scheme, _ in _FAMILIES))


def _scheme_kind(scheme: str, sigma: int, alpha: float | None) -> SchemeKind:
    if scheme not in _SCHEME_CHOICES:
        raise DomainError(f"scheme must be one of {_SCHEME_CHOICES}, got {scheme!r}")
    family = _FAMILIES.get((scheme, alpha is not None))
    if family is None:
        raise DomainError(f"the {scheme} scheme takes no alpha")
    return SchemeKind(family, sigma, alpha)


def _exact_solution(problem, omega, a, b, qa, qb):
    """The classical closed form through (a, qa) and (b, qb) as a function
    of the nodes, or None for a problem without one: the study then
    self-references."""
    span = b - a
    if problem == "free":
        return lambda t: qa + (t[:, None] - a) / span * (qb - qa)
    if problem != "harmonic":
        return None
    s = math.sin(omega * span)
    if abs(s) < 1e-12:
        raise DomainError("harmonic reference undefined: sin(omega (b-a)) ~ 0")
    coef_b = (qb - qa * math.cos(omega * span)) / s

    def exact(t: np.ndarray) -> np.ndarray:
        phase = omega * (t[:, None] - a)
        return qa * np.cos(phase) + coef_b * np.sin(phase)

    return exact


def _check_n_list(n_list: list[int]) -> None:
    if len(n_list) < 2 or any(lo >= hi for lo, hi in zip(n_list, n_list[1:])):
        raise DomainError("n-list must be at least two strictly increasing values")
    if n_list[0] < 2:  # a grid's fewest subintervals
        raise DomainError(f"n-list values must be at least 2, got {n_list[0]}")
    check_size(n_list[-1])


def _observed_orders(ns: list[int], errors: list[float]) -> list[float | None]:
    orders: list[float | None] = []
    for i in range(len(ns)):
        if i + 1 < len(ns) and errors[i] > 0 and errors[i + 1] > 0:
            orders.append(
                math.log(errors[i] / errors[i + 1]) / math.log(ns[i + 1] / ns[i])
            )
        else:
            orders.append(None)
    return orders


def _order_study(n_list, measure, verdict, header, out, label):
    """An order study over ``n_list``: ``measure(n)`` gives n's error, the
    size of n's reference, its CSV cells and its text.  If every error is
    at most ``EXACT_FLOOR`` times its own reference's size, the check is
    exact reproduction; else ``verdict`` maps the defined observed orders
    to (ok, check).  Each n gives a CSV row (n, its cells, its order) and a
    line (N, its text, its order); the last line is ``label: check ->
    PASS|FAIL``."""
    errors, sizes, cells, texts = zip(*map(measure, n_list))
    orders = _observed_orders(n_list, errors)
    if all(err <= EXACT_FLOOR * size for err, size in zip(errors, sizes)):
        ok, check = True, "exact reproduction"
    else:
        ok, check = verdict([o for o in orders if o is not None])
    rows, lines = [], []
    for n, row, text, order in zip(n_list, cells, texts, orders):
        rows.append([str(n), *row, "" if order is None else _fmt(order)])
        lines.append(f"N={n:5d} {text}" + ("" if order is None else f" order={order:.3f}"))
    lines.append(f"{label}: {check} -> {'PASS' if ok else 'FAIL'}")
    return _finish(ok, lines, out, header, rows)


def run_convergence(
    problem: str,
    scheme: str,
    sigma: int,
    n_list: list[int],
    alpha: float | None,
    omega: float,
    a: float,
    b: float,
    qa: np.ndarray | None,
    qb: np.ndarray | None,
    tol: float,
    max_iter: int,
    out=None,
) -> tuple[int, list[str]]:
    """Error-vs-resolution study with observed orders.

    ``free`` and ``harmonic`` classical runs are measured against the exact
    solution; everything else self-references a solve on a grid four times
    finer than the largest requested n.  The classical ``direct`` scheme is
    marched on its sigma from two exact initial nodes; all other schemes
    solve the boundary-value problem.
    """
    _check_n_list(n_list)
    lag = builtin_problem(problem, omega=omega, dim=1)
    kind = _scheme_kind(scheme, sigma, alpha)
    harmonic_exact_case = problem == "harmonic" and alpha is None
    if harmonic_exact_case and not math.isfinite(omega * (b - a)):
        raise DomainError(
            f"harmonic phase omega (b - a) must be finite, got omega = {omega}, a = {a}, b = {b}"
        )
    if qa is None:
        qa = [1.0 if harmonic_exact_case else 0.0]
    if qb is None and harmonic_exact_case:
        span = omega * (b - a)
        qb = np.multiply(qa, math.cos(span)) + 0.5 * math.sin(span)
    elif qb is None:
        qb = np.ones_like(qa, dtype=float)
    qa, qb = check_endpoints(qa, qb, lag.dim)  # before the closed form
    cfg = NewtonConfig(tol=tol, max_iter=max_iter)

    exact = None if alpha is not None else _exact_solution(problem, omega, a, b, qa, qb)
    marching = kind.family is SchemeFamily.DIRECT_CLASSICAL
    if marching and exact is None:
        raise DomainError(
            "direct classical marching needs an exact reference (free or harmonic)"
        )

    n_ref = 4 * max(n_list)
    if exact is None:
        if any(n_ref % n for n in n_list):
            raise DomainError(f"self-reference requires every n to divide n_ref={n_ref}")
        ref_problem = BVPProblem(make_grid(a, b, n_ref), lag, kind, qa, qb)
        ref_traj, _ = solve_bvp_newton(ref_problem, config=cfg)

    def measure(n):
        grid = make_grid(a, b, n)
        if exact is not None:
            ref_vals = exact(grid.nodes)
        else:
            ref_vals = ref_traj.values[:: n_ref // n]
        if marching:
            traj, _ = march_direct_classical(lag, grid, *ref_vals[:2], config=cfg, sigma=sigma)
        else:
            traj, _ = solve_bvp_newton(BVPProblem(grid, lag, kind, qa, qb), config=cfg)
        err = float(np.max(np.abs(traj.values - ref_vals)))
        h = (b - a) / n
        return (err, float(np.max(np.abs(ref_vals))), [_fmt(h), _fmt(err)],
                f"h={h:.6g} error={err:.6e}")

    def verdict(defined):
        if not defined:
            return False, "no observable order"
        if alpha is not None:
            last = defined[-1]
            return last >= FRACTIONAL_MIN_ORDER, f"last order {last:.2f} >= {FRACTIONAL_MIN_ORDER}"
        lo, hi = DIRECT_ORDER_WINDOW if marching else VI_ORDER_WINDOW
        if exact is not None:  # marching always has one
            return all(lo <= o <= hi for o in defined), f"orders in [{lo}, {hi}]"
        return lo <= defined[-1] <= hi, f"last order {defined[-1]:.2f} in [{lo}, {hi}]"

    label = f"convergence {problem}/{scheme}" + (f" alpha={alpha:g}" if alpha is not None else "")
    return _order_study(n_list, measure, verdict, CONVERGENCE_HEADER, out,
                        f"{label} sigma={sigma_label(sigma)}")


# --------------------------------------------------------------------------
# solve


def run_solve(
    problem: str,
    scheme: str,
    sigma: int,
    alpha: float | None,
    n: int,
    a: float,
    b: float,
    qa: np.ndarray,
    qb: np.ndarray,
    omega: float,
    out: str,
    diag: str | None,
    tol: float | None,
    max_iter: int,
) -> tuple[int, list[str]]:
    """One boundary-value solve; writes the trajectory and diagnostics CSVs."""
    qa, qb = check_endpoints(qa, qb)
    lag = builtin_problem(problem, omega=omega, dim=len(qa))
    kind = _scheme_kind(scheme, sigma, alpha)
    grid = make_grid(a, b, n)
    if tol is None:
        tol = NewtonConfig.tol if alpha is None else _FRACTIONAL_SOLVE_TOL
    cfg = NewtonConfig(tol=tol, max_iter=max_iter)
    bvp = BVPProblem(grid, lag, kind, qa, qb)
    traj, diagnostics = solve_bvp_newton(bvp, config=cfg)
    write_trajectory_csv(traj, out)
    if diag is None:
        diag = out[:-4] + "_diag.csv" if out.endswith(".csv") else out + ".diag.csv"
    diagnostics.write_csv(diag)
    lines = [
        f"solved {problem}/{kind.family.value} sigma={sigma_label(sigma)} n={n} "
        f"in {diagnostics.iterations} iterations",
        f"final residual norm {diagnostics.final_residual:.3e}",
        f"wrote {out}",
        f"wrote {diag}",
    ]
    return EXIT_OK, lines


# --------------------------------------------------------------------------
# glcheck

GLCHECK_HEADER = ["N", "h", "approx", "exact", "error", "observed_order"]


def run_glcheck(
    alpha: float,
    beta: float,
    n_list: list[int],
    a: float,
    b: float,
    out=None,
) -> tuple[int, list[str]]:
    """Discrete left fractional derivative of (t-a)^beta at t=b versus the
    closed-form value, with observed convergence orders."""
    _check_n_list(n_list)
    if not beta >= 0:
        raise DomainError(f"beta must be >= 0: (t-a)^beta is sampled at t=a, got {beta}")
    make_grid(a, b, n_list[0])  # the grid names ends or a span past the float range
    exact = rl_monomial_derivative(beta, alpha, b - a)

    def measure(n):
        traj = sample(lambda t: (t - a) ** beta, make_grid(a, b, n))
        approx = float(delta_alpha_minus(traj, alpha).value_at(n)[0])
        err = abs(approx - exact)
        return (err, abs(exact), [_fmt((b - a) / n), _fmt(approx), _fmt(exact), _fmt(err)],
                f"approx={approx:.12g} exact={exact:.12g} error={err:.3e}")

    lo, hi = GLCHECK_ORDER_WINDOW
    return _order_study(
        n_list, measure,
        lambda defined: (bool(defined) and all(lo <= o <= hi for o in defined),
                         f"orders in [{lo}, {hi}]"),
        GLCHECK_HEADER, out, f"glcheck alpha={alpha:g} beta={beta:g}")


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads an argument starting like a negative
    number (a '-' then a digit, '.digit', 'inf' or 'nan', in any case, as
    -1e-5 or -Inf) as a value, not as a flag: argparse's own test admits
    only -1 and -.5 forms, and no flag starts so.  The flag's converter
    refuses a malformed one, as -1,x, with exit 2.  Its subparsers are of
    this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    """The ``fracvi`` parser: the one place that states each flag's default."""
    return _build_parsers()[0]


def _build_parsers():
    """The top-level parser and a map from subcommand to its subparser."""
    parser = _Parser(
        prog="fracvi",
        description="Discrete variational integrator experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name, handler, help) -> argparse.ArgumentParser:
        fmt = argparse.ArgumentDefaultsHelpFormatter
        p = commands[name] = sub.add_parser(name, help=help, formatter_class=fmt)
        p.set_defaults(handler=handler)
        p.add_argument("--a", type=float, default=0.0, help="interval start")
        p.add_argument("--b", type=float, default=1.0, help="interval end")
        p.add_argument("--config", help="key=value file of flag values")
        return p

    def mechanics(p: argparse.ArgumentParser) -> None:
        p.add_argument("--problem", choices=BUILTIN_PROBLEMS, default="harmonic",
                       help="built-in Lagrangian")
        p.add_argument("--omega", type=float, default=1.0, help="problem frequency")
        p.add_argument("--sigma", type=_sigma, default="-", help="side, + or -")
        p.add_argument("--alpha", type=float, help="fractional order; unset: classical")

    def newton(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheme", choices=_SCHEME_CHOICES, default="vi",
                       help="discretization")
        p.add_argument("--max-iter", type=int, default=NewtonConfig.max_iter,
                       help="Newton iteration limit")

    p = command("ibp", run_ibp, "integration-by-parts identity checks")
    p.add_argument("--seed", type=_seed, default=0, help="random seed")
    p.add_argument("--n", type=int, default=64, help="subintervals")
    p.add_argument("--trials", type=_count, default=100, help="random trials")
    p.add_argument("--alpha", type=float, help="fractional order; unset: classical")
    p.add_argument("--dim", type=_count, default=1, help="curve dimension")

    p = command("coherence", run_coherence, "dual-path residual comparison")
    p.add_argument("--seed", type=_seed, default=0, help="random seed")
    mechanics(p)
    p.add_argument("--n", type=int, default=32, help="subintervals")
    p.add_argument("--dim", type=_count, default=1, help="curve dimension")
    p.add_argument("--out", help="CSV output path")

    p = command("convergence", run_convergence, "order study")
    mechanics(p)
    newton(p)
    p.add_argument("--n-list", type=_int_list, default="16,32,64,128",
                   help="increasing subinterval counts")
    p.add_argument("--qa", type=_vector, help="start value; unset: by problem")
    p.add_argument("--qb", type=_vector, help="end value; unset: by problem")
    # 1e-9 lies far below the study's errors (>= 1e-6) and clears the
    # rounding floor that 1e-12 meets from n ~ 128, but not the march
    # floor, about 1.8e-9 at n >= 4096 (README "Numerical notes")
    p.add_argument("--tol", type=float, default=1e-9, help="Newton residual target")
    p.add_argument("--out", help="CSV output path")

    p = command("solve", run_solve, "boundary-value solve")
    mechanics(p)
    newton(p)
    p.add_argument("--n", type=int, default=64, help="subintervals")
    p.add_argument("--qa", type=_vector, default="0", help="start value")
    p.add_argument("--qb", type=_vector, default="1", help="end value")
    p.add_argument("--out", default="solution.csv", help="trajectory CSV path")
    p.add_argument("--diag", help="diagnostics CSV path; unset: next to --out")
    p.add_argument("--tol", type=float, help=f"residual target; unset: {NewtonConfig.tol:g} "
                   f"classical, {_FRACTIONAL_SOLVE_TOL:g} fractional")

    p = command("glcheck", run_glcheck, "fractional derivative vs closed form")
    p.add_argument("--alpha", type=float, default=0.5, help="fractional order")
    p.add_argument("--beta", type=float, default=1.0, help="monomial exponent")
    p.add_argument("--n-list", type=_int_list, default="64,128,256,512",
                   help="increasing subinterval counts")
    p.add_argument("--out", help="CSV output path")

    return parser, commands


_NOT_ARGUMENTS = {"handler", "command", "config"}  # parsed, but no handler takes them


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser that every call of :func:`main` without ``--config``
    reuses: building one takes about 1.5 ms, a parse a few hundredths of
    that."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults of a parser of
            # this call's own: argparse then converts and checks them like
            # flags, explicit flags win, and no later call sees them
            flags = vars(args).keys() - _NOT_ARGUMENTS
            cfg = {k: v for k, v in load_config(args.config).items() if k in flags}
            parser, commands = _build_parsers()
            commands[args.command].set_defaults(**cfg)
            args = parser.parse_args(argv)
        kwargs = {k: v for k, v in vars(args).items() if k not in _NOT_ARGUMENTS}
        with np.errstate(all="ignore"):  # the checks refuse or report non-finite values
            code, lines = args.handler(**kwargs)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NewtonConvergenceError, SingularMatrixError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # as Python's signal docs advise ("Note on SIGPIPE"): point stdout
        # at devnull, so that the interpreter's last flush cannot raise
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code
