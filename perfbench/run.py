"""fracvi benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload frac-bvp --seed 1 --seconds 30 --trace 0

Run from the root of a fracvi checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``):

* ``frac-bvp``: ``solve_bvp_newton`` on the fractional families.
* ``classical-bvp``: ``solve_bvp_newton`` on the classical families.
* ``cli-study``: in-process ``fracvi.cli.main`` over the README commands.

Ops run in a closed loop from a single thread (BLAS pinned to one thread):
the next op starts when the previous one returns.  Correctness checks run
between ops, outside the timed sections.

``--trace 0`` runs a fixed number of whole cycles, sized so that their op
time is about ``--seconds`` at the reference speed defined below
(``CYCLE_S``), and reports the end-to-end metrics.  The work of a run is
fixed, not its time: the same seed gives the same ops, so the same ops
fail, in every run.  The host's speed drifts by up to a factor of two
from minute to minute, so a fixed reference probe (``reference.py``, no
fracvi code) runs between every two ops, and each op's time is reported
at the probe's reference speed: ``ops_per_s``, ``op_p50_s``,
``op_tail_s`` and ``setup_s`` are in those seconds.  The raw wall-clock
figures are in the report under ``wall``.  ``ops_per_s`` is successful
ops over the run's op time; ``op_tail_s`` is the highest percentile with
``TAIL_BEYOND`` op times beyond it, as ``smooth_percentile`` estimates it.  ``--trace 1`` replays the first cycle
twice, untraced and then traced, so its counts repeat exactly for a seed,
and reports the per-layer metrics.  The last stdout line is the result as
JSON; the line before it is a report with the run context and min and
median of each metric, also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# before numpy is imported, so that BLAS starts single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from reference import REF_PROBE_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: ``op_tail_s`` is the highest whole percentile with at least this many
#: op times beyond it.  A run's op count is fixed by its workload and
#: ``--seconds``, so the percentile is too (p91 frac-bvp, p79
#: classical-bvp, p88 cli-study at 27 s); it is in the report.
TAIL_BEYOND = 10

#: Op time of one cycle of each workload, in reference seconds (the median
#: over 5 seeds on the 2-core x86_64 host the benchmark was sized on).  A
#: run is ``seconds / CYCLE_S`` whole cycles (at least one), the same number
#: on any host: at 27 s, 6 cycles of frac-bvp and cli-study and 3 of
#: classical-bvp.
CYCLE_S = {"frac-bvp": 4.7, "classical-bvp": 8.8, "cli-study": 4.55}

#: A run stops after the cycle in which its op time passes this multiple of
#: ``--seconds``, so that it still ends in time on a far slower host; the
#: report then says ``capped``.
CAP = 3.0

#: Seconds between the probe samples taken while an op runs.  Ops run for
#: 0.03 to 5 s, and the host can change speed within the longer ones.
SAMPLE_S = 0.04

#: Fresh-interpreter set-ups whose median is ``setup_s``.
SETUP_REPEATS = 9

_SETUP_PROBE = """
import signal, statistics, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import reference
speed = [reference.probe()]
sample = lambda signum, frame: speed.append(reference.probe_once())
signal.signal(signal.SIGALRM, sample)
signal.setitimer(signal.ITIMER_REAL, float(sys.argv[5]), float(sys.argv[5]))
t0 = time.perf_counter()
import workloads
workloads.make_cycle(sys.argv[3], int(sys.argv[4]), 0, workloads.Path("."))
signal.setitimer(signal.ITIMER_REAL, 0)
setup = time.perf_counter() - t0 - sum(speed[1:])
speed.append(reference.probe())
print(setup, statistics.fmean(speed))
"""


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Import of fracvi plus input generation, each in a fresh interpreter,
    and the mean reference probe time before, during and after it; returns
    (setups, probes).  numpy is imported before the clock starts: the probe
    needs it, and no change to fracvi can move its import time.  A set-up
    takes about 0.06 s, so the probe samples it four times as often as an
    op."""
    here = str(Path(__file__).resolve().parent)
    cmd = [sys.executable, "-c", _SETUP_PROBE, here, str(SRC), workload, str(seed), str(SAMPLE_S / 4)]
    setups, probes = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:  # the first one also writes the bytecode caches
            setup, probe = map(float, done.stdout.split())
            setups.append(setup)
            probes.append(probe)
    return setups, probes


def run_op(op, ctx, record, during=None):
    """Time one op, then check it untimed; returns (latency, ok).

    With a list ``during``, a timer signal times one run of the reference
    probe every ``SAMPLE_S`` while the op runs, appends those times to it,
    and leaves them out of the latency."""
    if during is not None:
        sample = lambda signum, frame: during.append(reference.probe_once())
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    t0 = perf_counter()
    try:
        outcome = op.execute(ctx)
    finally:
        if during is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = perf_counter() - t0
        if during is not None:
            signal.signal(signal.SIGALRM, previous)
            latency -= sum(during)
    ok = outcome.ok
    if ok:
        with ctx.checking():
            try:
                op.check(outcome.value)
            # CheckFailed is an AssertionError; unreadable output raises the
            # others
            except (AssertionError, ValueError, OSError) as exc:
                ok = False
                record["check_failures"].append(f"{op.label}: {exc}")
    else:
        record["solver_failures"].append(f"{op.label}: {outcome.error}")
    record["attempted"] += 1
    record["failed"] += 0 if ok else 1
    return latency, ok


def new_record() -> dict:
    return {"attempted": 0, "failed": 0, "solver_failures": [], "check_failures": []}


def percentile(values, q) -> float:
    return float(np.percentile(values, q, method="inverted_cdf"))


def smooth_percentile(values, q) -> float:
    """Harrell-Davis estimate of percentile ``q``: a mean of the sorted
    values weighted by the Beta(q (n + 1), (1 - q) (n + 1)) probability of
    each rank.  A tail percentile sits among few samples of unlike cost,
    where one op more or less below it moves a single order statistic a
    lot; this estimate moves by a fraction of that."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    cdf = np.concatenate([[0.0], np.cumsum(np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.concatenate([[0.0], t]), cdf))
    return float(weights @ x)


def summary(values) -> dict:
    return {"min": min(values), "median": statistics.median(values), "samples": len(values)}


def scaled(latencies, probes, during) -> list[float]:
    """Each op's time at the reference probe speed.  Op ``i`` ran between
    probes ``i`` and ``i + 1`` and took the probe samples ``during[i]``;
    their mean is the host's speed meanwhile."""
    out = []
    for i, lat in enumerate(latencies):
        speed = [probes[i], *during[i], probes[i + 1]]
        out.append(lat * REF_PROBE_S / statistics.fmean(speed))
    return out


def tail_percentile(samples: int) -> int:
    """The highest whole percentile (at least 50) of ``samples`` op times
    with ``TAIL_BEYOND`` of them above it: ``percentile`` takes the
    sample of rank ceil(q * samples / 100)."""
    fits = [q for q in range(50, 100) if samples - -(-q * samples // 100) >= TAIL_BEYOND]
    return max(fits, default=50)


def latency_metrics(latencies, oks, tail) -> dict:
    """``ops_per_s`` is successful ops per second of op time, failed ops'
    time included: a run's ops are fixed by its seed, so that is a rate of
    fixed work."""
    return {
        "ops_per_s": sum(oks) / sum(latencies),
        "op_p50_s": percentile(latencies, 50),
        "op_tail_s": smooth_percentile(latencies, tail),
    }


def plain_run(workloads, workload, seed, seconds, workdir, tiny=False):
    ctx = workloads.Context(workdir)
    record = new_record()
    latencies, oks, cycles, during = [], [], [], []
    probes = [reference.probe()]
    elapsed = 0.0
    planned = max(1, round(seconds / CYCLE_S[workload]))
    for index in range(planned):
        if index and elapsed > CAP * seconds:
            break
        for op in workloads.make_cycle(workload, seed, index, workdir, tiny):
            during.append([])
            latency, ok = run_op(op, ctx, record, during[-1])
            probes.append(reference.probe())
            latencies.append(latency)
            oks.append(ok)
            cycles.append(index)
            elapsed += latency
    at_ref = scaled(latencies, probes, during)
    tail = tail_percentile(len(at_ref))
    metrics = latency_metrics(at_ref, oks, tail)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_beyond = sum(1 for x in at_ref if x > metrics["op_tail_s"])
    details = {
        "cycles": max(cycles) + 1,
        "capped": max(cycles) + 1 < planned,
        "timed_s": elapsed,
        "op_latency_s": summary(at_ref),
        "op_tail": {"percentile": tail, "samples": len(at_ref), "beyond": tail_beyond},
        "probe_s": summary(probes),
        "wall": latency_metrics(latencies, oks, tail),
        "samples": {
            "op_latency_s": latencies,
            "op_ok": oks,
            "cycle": cycles,
            "probe_s": probes,
            "probe_during_s": during,
        },
    }
    return metrics, record, details


def traced_run(workloads, tracer_mod, workload, seed, workdir, tiny=False):
    ops = workloads.make_cycle(workload, seed, 0, workdir, tiny)
    untraced_rec = new_record()
    ctx = workloads.Context(workdir)
    untraced_s = sum(run_op(op, ctx, untraced_rec)[0] for op in ops)

    record = new_record()
    tracer = tracer_mod.Tracer()
    with tracer_mod.instrument(tracer):
        ctx = workloads.Context(workdir, tracer)
        traced_s = sum(run_op(op, ctx, record)[0] for op in ops)
    metrics = tracer.per_layer()
    untraced_ok = untraced_rec["attempted"] - untraced_rec["failed"]
    traced_ok = record["attempted"] - record["failed"]
    metrics["trace.overhead_ratio"] = (
        (traced_ok / traced_s) / (untraced_ok / untraced_s) if traced_ok and untraced_ok else 0.0
    )

    # the pinned op has counters of its own and is not part of the cycle
    pinned = tracer_mod.Tracer()
    pinned_rec = new_record()
    with tracer_mod.instrument(pinned):
        run_op(workloads.PINNED, workloads.Context(workdir, pinned), pinned_rec)
    metrics["pinned.newton_iters"] = pinned.counters["newton_iters"]
    metrics["pinned.residual_evals"] = pinned.counters["residual_evals"]

    # the untraced pass ran the same ops, so only its check failures are new
    record["check_failures"] += untraced_rec["check_failures"]
    record["check_failures"] += pinned_rec["check_failures"]
    record["solver_failures"] += [f"pinned: {x}" for x in pinned_rec["solver_failures"]]
    details = {
        "ops": len(ops),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "computed_from_array_sizes": ["fracops.kernel_bytes", "fracops.matvec_flops"],
        "pinned_op": workloads.PINNED.label,
    }
    return metrics, record, details, tracer


def context(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "reference_probe_s": REF_PROBE_S,
        "cycle_s": CYCLE_S[args.workload],
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_modules():
    """Put ``src/`` and this directory on the path; return (tracer, workloads)."""
    for path in (str(SRC), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracer
    import workloads

    return tracer, workloads


def execute(workload, seed, seconds, trace, tiny=False):
    """Run one benchmark pass; returns (result, report)."""
    tracer_mod, workloads = load_modules()
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
    try:
        if trace:
            metrics, record, details, tracer = traced_run(
                workloads, tracer_mod, workload, seed, workdir, tiny
            )
            tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
        else:
            setups, probes = measure_setup(workload, seed)
            metrics, record, details = plain_run(workloads, workload, seed, seconds, workdir, tiny)
            metrics["setup_s"] = statistics.median(
                s * REF_PROBE_S / p for s, p in zip(setups, probes)
            )
            details["setup_s"] = summary(setups)
            details["wall"]["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not record["check_failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())
        },
    }
    report = dict(details, workdir=str(workdir))
    report["fail_ratio"] = record["failed"] / record["attempted"]
    report["solver_failures"] = record["solver_failures"]
    report["check_failures"] = record["check_failures"]
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in load_spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracvi" / "__init__.py").is_file():
        print(f"error: no fracvi sources under {SRC}", file=sys.stderr)
        return 2
    result, report = execute(args.workload, args.seed, args.seconds, args.trace)
    report = {"context": context(args), **report}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps({"report": {k: v for k, v in report.items() if k != "samples"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
