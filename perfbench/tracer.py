"""In-memory span tracer and the wrappers that put it around fracvi's
layer boundaries.

Nothing here edits fracvi: ``instrument`` replaces, for the duration of a
``with`` block, the public names each module looks up across a layer
boundary (``fracvi.solver.assemble_residual``, ``fracvi.schemes.seq_delta``,
...) with timing wrappers, and puts the originals back on exit.

Each wrapped call becomes a span (name, start, end, parent).  Lagrangian
callbacks run about 200k times per solve, so they are counted and timed as
aggregates instead; their time is still charged to the enclosing span, so
self times (span duration minus the time of its children) stay exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from collections import defaultdict
from time import perf_counter

import fracvi.cli
import fracvi.lagrangians
import fracvi.schemes
import fracvi.solver

#: CLI subcommands, one ``cli.main_s.<name>`` metric each.
SUBCOMMANDS = ("convergence", "coherence", "glcheck", "ibp", "solve")

# (module, attribute, span name) for plain timing wrappers.
_SPANS = (
    (fracvi.solver, "Trajectory", "grids.trajectory"),
    (fracvi.schemes, "functional_gradient", "lagrangians.gradient"),
    (fracvi.schemes, "discrete_velocity", "diffops.apply"),
    (fracvi.schemes, "seq_delta", "diffops.apply"),
    (fracvi.lagrangians, "discrete_velocity", "diffops.apply"),
    (fracvi.lagrangians, "gl_coefficients", "fracops.weights"),
    (fracvi.cli, "check_discrete_ibp", "diffops.apply"),
    (fracvi.cli, "coherence_report", "schemes.coherence"),
)


class Tracer:
    """Spans and aggregate counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.kernels: set[tuple[str, float, int]] = set()
        self.active = True
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._pending_residual_s: list[float] = []

    @contextlib.contextmanager
    def paused(self):
        """Run correctness checks without recording them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields a one-slot list holding its duration."""
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        out = [0.0]
        t0 = perf_counter()
        try:
            yield out
        finally:
            t1 = perf_counter()
            self._stack.pop()
            dur = t1 - t0
            out[0] = dur
            self.spans.append((frame[0], name, t0, t1, parent))
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_callback(self, fn):
        def traced(*args):
            if not self.active:
                return fn(*args)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - t0
                self.counters["callback_calls"] += 1
                self.seconds["callback"] += dur
                if self._stack:
                    self._stack[-1][1] += dur

        return traced

    def traced_lagrangian(self, lag):
        """The same Lagrangian with its L, Lx and Lv callables counted."""
        return dataclasses.replace(
            lag,
            L=self.wrap_callback(lag.L),
            Lx=self.wrap_callback(lag.Lx),
            Lv=self.wrap_callback(lag.Lv),
        )

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps([sid, name, t0, t1, parent]) + "\n")

    # --- wrappers with layer-specific bookkeeping -------------------------

    def _fracops(self, fn, kernels):
        """GL application; ``kernels(args)`` names each (kind, alpha, size, d)
        matvec, whose cost is computed from the array sizes."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            for kind, alpha, size, dim in kernels(*args, **kwargs):
                self.kernels.add((kind, float(alpha), size))
                self.counters["matvec_flops"] += 2 * size * (size + 1) * dim
            with self.span("fracops.apply"):
                return fn(*args, **kwargs)

        return traced

    def _assemble(self, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span("schemes.assemble") as dur:
                result = fn(*args, **kwargs)
            self._pending_residual_s.append(dur[0])
            return result

        return traced

    def _lu_solve(self, fn):
        # The m residual calls just before each linear solve are the
        # finite-difference Jacobian columns.
        def traced(a, b):
            if not self.active:
                return fn(a, b)
            m = len(b)
            if len(self._pending_residual_s) >= m:
                self.seconds["jacobian"] += sum(self._pending_residual_s[-m:])
            self._pending_residual_s.clear()
            with self.span("solver.lu_solve"):
                return fn(a, b)

        return traced

    def _solve_bvp(self, fn):
        def traced(problem, *args, **kwargs):
            if not self.active:
                return fn(problem, *args, **kwargs)
            evals0 = self.calls["schemes.assemble"]
            lu0 = self.calls["solver.lu_solve"]
            diag = None
            self._pending_residual_s.clear()
            try:
                with self.span("solver.solve"):
                    result = fn(problem, *args, **kwargs)
                diag = result[1]
                return result
            except fracvi.solver.NewtonConvergenceError as exc:
                diag = exc.diagnostics
                raise
            finally:
                evals = self.calls["schemes.assemble"] - evals0
                steps = self.calls["solver.lu_solve"] - lu0
                m = (problem.grid.n - 1) * problem.lagrangian.dim
                # evals = 1 + sum over steps of (m FD columns + line-search
                # trials); every trial after the first is a backtrack
                self.counters["backtracks"] += max(0, evals - 1 - steps * (m + 1))
                self.counters["newton_iters"] += diag.iterations if diag else steps
                self.counters["residual_evals"] += evals

        return traced

    def _march(self, fn):
        # Marching returns no diagnostics: each per-step Newton iteration
        # makes one (1 x 1) linear solve, so those are counted instead.
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            lu0 = self.calls["solver.lu_solve"]
            try:
                with self.span("solver.march"):
                    return fn(*args, **kwargs)
            finally:
                self.counters["newton_iters"] += self.calls["solver.lu_solve"] - lu0

        return traced

    def _csv_writer(self, fn, path_arg: int):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span("grids.csv"):
                result = fn(*args, **kwargs)
            self.counters["csv_bytes"] += os.path.getsize(args[path_arg])
            return result

        return traced

    def _builtin_problem(self, fn):
        def traced(*args, **kwargs):
            lag = fn(*args, **kwargs)
            return self.traced_lagrangian(lag) if self.active else lag

        return traced

    def patches(self):
        """(owner, attribute, wrapper) for every instrumented name."""
        out = [(mod, attr, self.wrap(name, getattr(mod, attr))) for mod, attr, name in _SPANS]
        vel = lambda q, sigma, alpha: [("minus" if sigma < 0 else "plus", alpha, q.grid.n, q.dim)]
        seq_plus = lambda s, alpha: [("plus", alpha, s.grid.n - 1, s.dim)]
        seq_minus = lambda s, alpha: [("minus", alpha, s.grid.n - 1, s.dim)]
        left = lambda q, alpha: [("minus", alpha, q.grid.n, q.dim)]
        ibp = lambda f, g, alpha: [
            ("minus", alpha, f.grid.n, f.dim),
            ("plus", alpha, f.grid.n, f.dim),
        ]
        out += [
            (fracvi.schemes, "discrete_velocity_alpha", self._fracops(fracvi.schemes.discrete_velocity_alpha, vel)),
            (fracvi.lagrangians, "discrete_velocity_alpha", self._fracops(fracvi.lagrangians.discrete_velocity_alpha, vel)),
            (fracvi.schemes, "frac_seq_plus", self._fracops(fracvi.schemes.frac_seq_plus, seq_plus)),
            (fracvi.schemes, "frac_seq_minus", self._fracops(fracvi.schemes.frac_seq_minus, seq_minus)),
            (fracvi.cli, "delta_alpha_minus", self._fracops(fracvi.cli.delta_alpha_minus, left)),
            (fracvi.cli, "check_discrete_frac_ibp", self._fracops(fracvi.cli.check_discrete_frac_ibp, ibp)),
            (fracvi.solver, "assemble_residual", self._assemble(fracvi.solver.assemble_residual)),
            (fracvi.solver, "lu_solve", self._lu_solve(fracvi.solver.lu_solve)),
            (fracvi.solver, "solve_bvp_newton", self._solve_bvp(fracvi.solver.solve_bvp_newton)),
            (fracvi.cli, "solve_bvp_newton", self._solve_bvp(fracvi.cli.solve_bvp_newton)),
            (fracvi.cli, "march_direct_classical", self._march(fracvi.cli.march_direct_classical)),
            (fracvi.cli, "builtin_problem", self._builtin_problem(fracvi.cli.builtin_problem)),
            (fracvi.cli, "write_trajectory_csv", self._csv_writer(fracvi.cli.write_trajectory_csv, 1)),
            (fracvi.cli, "_write_csv", self._csv_writer(fracvi.cli._write_csv, 0)),
            (fracvi.solver.NewtonDiagnostics, "write_csv", self._csv_writer(fracvi.solver.NewtonDiagnostics.write_csv, 1)),
        ]
        return out

    def per_layer(self) -> dict[str, float]:
        c, t, s = self.counters, self.total, self.self_time
        metrics = {
            "solver.newton_iters": c["newton_iters"],
            "solver.residual_evals": c["residual_evals"],
            "solver.jacobian_s": self.seconds["jacobian"],
            "solver.lu_solve_calls": self.calls["solver.lu_solve"],
            "solver.lu_solve_s": t["solver.lu_solve"],
            "solver.backtracks": c["backtracks"],
            "solver.self_s": s["solver.solve"] + s["solver.march"],
            "schemes.assemble_calls": self.calls["schemes.assemble"],
            "schemes.assemble_s": t["schemes.assemble"],
            "schemes.assemble_self_s": s["schemes.assemble"],
            "schemes.coherence_s": t["schemes.coherence"],
            "lagrangians.callback_calls": c["callback_calls"],
            "lagrangians.callback_s": self.seconds["callback"],
            "lagrangians.gradient_self_s": s["lagrangians.gradient"],
            "fracops.apply_calls": self.calls["fracops.apply"],
            "fracops.apply_s": t["fracops.apply"],
            "fracops.weights_s": t["fracops.weights"],
            "fracops.kernel_bytes": sum(8 * n * (n + 1) for _, _, n in self.kernels),
            "fracops.matvec_flops": c["matvec_flops"],
            "diffops.apply_calls": self.calls["diffops.apply"],
            "diffops.apply_s": t["diffops.apply"],
            "grids.trajectory_builds": self.calls["grids.trajectory"],
            "grids.trajectory_s": t["grids.trajectory"],
            "grids.csv_bytes": c["csv_bytes"],
            "grids.csv_s": t["grids.csv"],
            "cli.self_s": sum(s[f"cli.main.{sub}"] for sub in SUBCOMMANDS),
        }
        for sub in SUBCOMMANDS:
            metrics[f"cli.main_s.{sub}"] = t[f"cli.main.{sub}"]
        return metrics


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers; restore the original names on exit."""
    patches = tracer.patches()
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
