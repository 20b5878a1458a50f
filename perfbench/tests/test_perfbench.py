"""Tests of the benchmark harness itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

tracer_mod, workloads = run.load_modules()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_spec_names_the_workloads():
    assert WORKLOADS == list(workloads.SIZES) == list(workloads.TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, report = run.execute(workload, seed=5, seconds=0.0, trace=trace, tiny=True)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert result["correct"], report["check_failures"]
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert report["fail_ratio"] == result["failed"] / result["attempted"]
    if not trace:
        for name in ("ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "setup_s"):
            assert result["metrics"][name]["value"] > 0


def test_traced_counts_repeat_for_a_seed():
    counts = (
        "solver.newton_iters",
        "solver.residual_evals",
        "solver.lu_solve_calls",
        "lagrangians.callback_calls",
        "fracops.apply_calls",
    )
    runs = [run.execute("frac-bvp", seed=9, seconds=0.0, trace=1, tiny=True)[0] for _ in range(2)]
    for name in counts:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]
    assert runs[0]["metrics"]["solver.newton_iters"]["value"] > 0


@pytest.mark.parametrize("workload", ["frac-bvp", "cli-study"])
def test_plain_run_is_fixed_work_for_a_seed(workload):
    # a run is a fixed number of whole cycles, so the same seed gives the
    # same ops and the same failures whatever the host's speed
    seconds = 2 * run.CYCLE_S[workload]
    runs = [run.execute(workload, seed=7, seconds=seconds, trace=0, tiny=True) for _ in range(2)]
    cycle = workloads.make_cycle(workload, 7, 0, Path("."), tiny=True)
    for result, report in runs:
        assert report["cycles"] == 2 and not report["capped"]
        assert result["attempted"] == 2 * len(cycle)
    assert runs[0][0]["failed"] == runs[1][0]["failed"]
    # the CLI's scratch directory is the only part of an argv that differs
    names = [
        [x.replace(str(report["workdir"]), "") for x in report["solver_failures"]]
        for _, report in runs
    ]
    assert names[0] == names[1]


def test_classical_workload_does_no_gl_work():
    result, _ = run.execute("classical-bvp", seed=2, seconds=0.0, trace=1, tiny=True)
    metrics = result["metrics"]
    assert metrics["fracops.apply_calls"]["value"] == 0
    assert metrics["lagrangians.callback_calls"]["value"] > 0


@dataclasses.dataclass
class Corrupted:
    """Runs a real op, then perturbs its output before the check sees it."""

    op: object
    corrupt: object

    @property
    def label(self):
        return self.op.label

    def execute(self, ctx):
        outcome = self.op.execute(ctx)
        assert outcome.ok, outcome.error
        return workloads.Outcome(True, self.corrupt(outcome.value))

    def check(self, value):
        self.op.check(value)


def _bump(traj):
    # large enough to exceed the O(h) closed-form bound at the tiny n = 16
    vals = traj.values.copy()
    vals[len(vals) // 2] += 2.0
    return type(traj)(traj.grid, vals)


def _ops(tmp_path):
    frac = workloads.make_cycle("frac-bvp", 3, 0, tmp_path, tiny=True)
    classical = workloads.make_cycle("classical-bvp", 3, 0, tmp_path, tiny=True)
    return frac[:1] + frac[6:7] + classical[:1] + classical[4:5] + classical[8:9]


def test_corrupted_solution_counts_as_failure(tmp_path):
    ctx = workloads.Context(tmp_path)
    for op in _ops(tmp_path):
        record = run.new_record()
        run.run_op(op, ctx, record)
        assert record["failed"] == 0, record
        run.run_op(Corrupted(op, _bump), ctx, record)
        assert record["attempted"] == 2 and record["failed"] == 1, op.label
        assert len(record["check_failures"]) == 1


def test_corrupted_cli_solution_counts_as_failure(tmp_path):
    ops = workloads.make_cycle("cli-study", 4, 0, tmp_path, tiny=True)
    solve = next(op for op in ops if op.subcommand == "solve")

    def rewrite(stdout):
        path = solve._out_path()
        lines = path.read_text().splitlines()
        k, t, q = lines[3].split(",")
        lines[3] = f"{k},{t},{float(q) + 2.0!r}"
        path.write_text("\n".join(lines) + "\n")
        return stdout

    ctx = workloads.Context(tmp_path)
    record = run.new_record()
    run.run_op(Corrupted(solve, rewrite), ctx, record)
    assert record["failed"] == 1 and record["check_failures"]


def test_solver_failure_is_counted_and_named(tmp_path):
    # one Newton step cannot solve the nonlinear problem
    argv = ("solve", "--problem", "pendulum", "--n", "16", "--qa", "0", "--qb", "1",
            "--max-iter", "1", "--out", str(tmp_path / "s.csv"))
    record = run.new_record()
    run.run_op(workloads.CliOp(argv), workloads.Context(tmp_path), record)
    assert record["failed"] == 1 and not record["check_failures"]
    assert record["solver_failures"][0].startswith("fracvi solve --problem pendulum")
    assert "exit 3" in record["solver_failures"][0]


def test_cli_verdict_fail_makes_the_run_incorrect(tmp_path):
    # a non-smooth monomial misses glcheck's order window: the command's
    # own check fails and it exits 1
    argv = ("glcheck", "--alpha", "0.5", "--beta", "0.5", "--n-list", "64,128",
            "--out", str(tmp_path / "g.csv"))
    record = run.new_record()
    run.run_op(workloads.CliOp(argv), workloads.Context(tmp_path), record)
    assert record["failed"] == 1 and not record["solver_failures"]
    assert record["check_failures"][0].startswith("fracvi glcheck")
    assert "exit 1" in record["check_failures"][0]


def test_stall_slot_is_a_named_solver_failure(tmp_path):
    ops = workloads.make_cycle("frac-bvp", 1, 0, tmp_path, tiny=True)
    assert ops[-1] is workloads.STALL
    record = run.new_record()
    run.run_op(workloads.STALL, workloads.Context(tmp_path), record)
    assert record["failed"] == 1 and not record["check_failures"]
    assert "stalled" in record["solver_failures"][0]


def test_scaled_times_follow_the_probe():
    # the same op on a host twice as slow: the same time at reference speed
    ref = run.REF_PROBE_S
    assert run.scaled([1.0, 2.0], [ref, ref, 2 * ref], [[], []]) == pytest.approx([1.0, 4.0 / 3.0])
    # probe samples taken while the op ran count alike
    assert run.scaled([2.0], [ref, ref], [[4 * ref]]) == pytest.approx([1.0])
    metrics = run.latency_metrics([1.0, 1.0, 3.0, 1.0], [True, True, False, True], 70)
    assert metrics["ops_per_s"] == pytest.approx(3.0 / 6.0)


def test_smooth_percentile_weighs_the_ranks_near_it():
    times = [float(x) for x in range(101)]
    assert run.smooth_percentile(times, 50) == pytest.approx(50.0, abs=0.01)
    assert run.smooth_percentile(times, 90) == pytest.approx(90.0, abs=0.5)
    assert run.smooth_percentile([3.0], 90) == 3.0
    # one outlier far above the tail moves it little
    assert run.smooth_percentile(times[:-1] + [1e4], 80) == pytest.approx(80.0, abs=0.5)


@pytest.mark.parametrize("samples", [48, 84, 95, 200])
def test_tail_percentile_leaves_ten_samples_beyond(samples):
    times = list(range(samples))
    q = run.tail_percentile(samples)
    beyond = lambda q: sum(1 for x in times if x > run.percentile(times, q))
    assert beyond(q) >= run.TAIL_BEYOND > beyond(q + 1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frac-bvp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
