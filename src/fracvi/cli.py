"""Command-line experiments over the library.

Subcommands: ``ibp`` (randomized integration-by-parts identity checks),
``coherence`` (direct-embedding vs variational residual gaps), ``convergence``
(order studies against exact or fine-grid references), ``solve`` (one
boundary-value solve with CSV export), and ``glcheck`` (discrete fractional
derivative of monomials against the closed form).

Every flag's name, type and default is stated once, in :func:`build_parser`;
``fracvi <cmd> --help`` lists them with their defaults.  Each subcommand's
handler is its ``run_*`` function, called with the parsed values it takes.
A plain ``key=value`` file can be supplied with ``--config``: keys are flag
names (with ``-`` or ``_``), values are parsed exactly like flags, keys the
subcommand does not take are ignored, and explicit flags win.

Exit codes: 0 all checks pass, 1 check violation, 2 usage error, 3 solver
failure.  Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys

import numpy as np

from .diffops import check_discrete_ibp
from .fracops import check_discrete_frac_ibp, delta_alpha_minus, rl_monomial_derivative
from .grids import (
    MINUS,
    PLUS,
    DomainError,
    Trajectory,
    _fmt,
    _write_csv,
    check_endpoints,
    make_grid,
    sample,
    sigma_label,
    write_trajectory_csv,
)
from .lagrangians import BUILTIN_PROBLEMS, builtin_problem
from .schemes import (
    SchemeFamily,
    SchemeKind,
    VERDICT_COHERENT,
    VERDICT_NOT_COHERENT,
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

CLASSICAL_IBP_RTOL = 1e-12
FRACTIONAL_IBP_RTOL = 1e-10
_FRACTIONAL_SOLVE_TOL = 1e-10  # solve's default --tol; a classical solve takes NewtonConfig.tol

#: Observed-order acceptance windows per scheme.
VI_ORDER_WINDOW = (1.8, 2.2)
DIRECT_ORDER_WINDOW = (0.7, 1.3)
FRACTIONAL_MIN_ORDER = 0.7
GLCHECK_ORDER_WINDOW = (0.7, 1.3)

#: Errors below this (relative) level count as exact reproduction and are
#: exempt from order checks.
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


def _count(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


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
    """Randomized two-sided evaluation of the integration-by-parts identity."""
    rng = np.random.default_rng(seed)
    grid = make_grid(a, b, n)
    rtol = CLASSICAL_IBP_RTOL if alpha is None else FRACTIONAL_IBP_RTOL
    worst = 0.0
    failures = 0
    for _ in range(trials):
        f_vals = rng.standard_normal((n + 1, dim))
        g_vals = rng.standard_normal((n + 1, dim))
        if alpha is not None:
            f_vals[[0, -1]] = 0.0  # the fractional identity has no boundary term
        f, g = Trajectory(grid, f_vals), Trajectory(grid, g_vals)
        if alpha is None:
            lhs, rhs = check_discrete_ibp(f, g)
        else:
            lhs, rhs = check_discrete_frac_ibp(f, g, alpha)
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
        reports[0].verdict == VERDICT_NOT_COHERENT
        and reports[0].gap > 0.1
        and all(rep.verdict == VERDICT_COHERENT for rep in reports[1:])
    )
    lines = [rep.text() for rep in reports]
    lines.append("coherence: PASS" if ok else "coherence: FAIL")
    if out is not None:
        _write_csv(out, COHERENCE_HEADER, [rep.csv_row() for rep in reports])
        lines.append(f"wrote {out}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), lines


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
    marched from two exact initial nodes; all other schemes solve the
    boundary-value problem.
    """
    _check_n_list(n_list)
    lag = builtin_problem(problem, omega=omega, dim=1)
    kind = _scheme_kind(scheme, sigma, alpha)
    harmonic_exact_case = problem == "harmonic" and alpha is None
    if qa is None:
        qa = [1.0 if harmonic_exact_case else 0.0]
    if qb is None and harmonic_exact_case:
        span = omega * (b - a)
        qb = np.multiply(qa, math.cos(span)) + 0.5 * math.sin(span)
    elif qb is None:
        qb = np.ones_like(qa, dtype=float)
    qa, qb = check_endpoints(qa, qb, lag.dim)  # before the closed form
    cfg = NewtonConfig(tol=tol, max_iter=max_iter)

    exact = None if kind.is_fractional else _exact_solution(problem, omega, a, b, qa, qb)
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

    errors = []
    for n in n_list:
        grid = make_grid(a, b, n)
        if exact is not None:
            ref_vals = exact(grid.nodes)
        else:
            ref_vals = ref_traj.values[:: n_ref // n]
        if marching:
            traj, _ = march_direct_classical(lag, grid, ref_vals[0], ref_vals[1], config=cfg)
        else:
            traj, _ = solve_bvp_newton(BVPProblem(grid, lag, kind, qa, qb), config=cfg)
        errors.append(float(np.max(np.abs(traj.values - ref_vals))))

    orders = _observed_orders(n_list, errors)
    scale = float(np.max(np.abs(qb - qa))) + 1.0
    exact_repro = all(err <= EXACT_FLOOR * scale for err in errors)
    if exact_repro:
        ok = True
        check = "exact reproduction"
    else:
        defined = [o for o in orders if o is not None]
        if not defined:
            ok = False
            check = "no observable order"
        elif alpha is not None:
            ok = defined[-1] >= FRACTIONAL_MIN_ORDER
            check = f"last order {defined[-1]:.2f} >= {FRACTIONAL_MIN_ORDER}"
        elif exact is not None:  # marching always has one
            lo, hi = DIRECT_ORDER_WINDOW if marching else VI_ORDER_WINDOW
            ok = all(lo <= o <= hi for o in defined)
            check = f"orders in [{lo}, {hi}]"
        else:
            lo, hi = VI_ORDER_WINDOW
            ok = lo <= defined[-1] <= hi
            check = f"last order {defined[-1]:.2f} in [{lo}, {hi}]"

    rows = []
    lines = []
    for n, err, order in zip(n_list, errors, orders):
        h = (b - a) / n
        order_text = "" if order is None else _fmt(order)
        rows.append([str(n), _fmt(h), _fmt(err), order_text])
        lines.append(
            f"N={n:5d} h={h:.6g} error={err:.6e}"
            + (f" order={order:.3f}" if order is not None else "")
        )
    lines.append(
        f"convergence {problem}/{scheme}"
        + (f" alpha={alpha:g}" if alpha is not None else "")
        + f" sigma={sigma_label(sigma)}: {check} -> {'PASS' if ok else 'FAIL'}"
    )
    if out is not None:
        _write_csv(out, CONVERGENCE_HEADER, rows)
        lines.append(f"wrote {out}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), lines


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
    exact = rl_monomial_derivative(beta, alpha, b - a)
    errors = []
    approxes = []
    for n in n_list:
        grid = make_grid(a, b, n)
        traj = sample(lambda t: (t - a) ** beta, grid)
        approx = float(delta_alpha_minus(traj, alpha).value_at(n)[0])
        approxes.append(approx)
        errors.append(abs(approx - exact))
    orders = _observed_orders(n_list, errors)
    floor = EXACT_FLOOR * (1.0 + abs(exact))
    if all(err <= floor for err in errors):
        ok = True
        check = "exact reproduction"
    else:
        defined = [o for o in orders if o is not None]
        lo, hi = GLCHECK_ORDER_WINDOW
        ok = bool(defined) and all(lo <= o <= hi for o in defined)
        check = f"orders in [{lo}, {hi}]"
    rows = []
    lines = []
    for n, approx, err, order in zip(n_list, approxes, errors, orders):
        h = (b - a) / n
        order_text = "" if order is None else _fmt(order)
        rows.append([str(n), _fmt(h), _fmt(approx), _fmt(exact), _fmt(err), order_text])
        lines.append(
            f"N={n:5d} approx={approx:.12g} exact={exact:.12g} error={err:.3e}"
            + (f" order={order:.3f}" if order is not None else "")
        )
    lines.append(
        f"glcheck alpha={alpha:g} beta={beta:g}: {check} -> {'PASS' if ok else 'FAIL'}"
    )
    if out is not None:
        _write_csv(out, GLCHECK_HEADER, rows)
        lines.append(f"wrote {out}")
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), lines


# --------------------------------------------------------------------------
# parser


class _NegativeNumbers:
    """Matches an argument that is a number, or a comma list of them,
    starting with '-': every form ``float`` reads, as -1e-5 or -inf."""

    @staticmethod
    def match(text: str) -> bool:
        if not text.startswith("-"):
            return False
        try:
            _vector(text)
        except argparse.ArgumentTypeError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative number as a value, not
    as a flag: argparse's own test admits only -1 and -.5 forms.  Its
    subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumbers


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
        p.add_argument("--seed", type=int, default=0, help="random seed")
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
    p.add_argument("--n", type=int, default=64, help="subintervals")
    p.add_argument("--trials", type=_count, default=100, help="random trials")
    p.add_argument("--alpha", type=float, help="fractional order; unset: classical")
    p.add_argument("--dim", type=_count, default=1, help="curve dimension")

    p = command("coherence", run_coherence, "dual-path residual comparison")
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
            flags = vars(args).keys() - {"handler", "command", "config"}
            cfg = {k: v for k, v in load_config(args.config).items() if k in flags}
            parser, commands = _build_parsers()
            commands[args.command].set_defaults(**cfg)
            args = parser.parse_args(argv)
        takes = inspect.signature(args.handler).parameters
        kwargs = {k: v for k, v in vars(args).items() if k in takes}
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
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
