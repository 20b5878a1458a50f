"""Smoke test of ``tests/bitcheck.py``, the bit-comparison tool, on its
smallest size: every group runs and prints its count and hash; and its
comparison with another checkout, here the tree itself, with how far a
group moved when it differs."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import bitcheck


def test_bitcheck_runs_on_its_smallest_size(capsys):
    assert bitcheck.main(["4"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {group: sum(case[5] <= 4 for case in cases) for group, cases in bitcheck.GROUPS.items()}
    assert [line[:4] for line in lines] == [
        [group, str(count), "cases", "sha256"] for group, count in counts.items()
    ]
    assert counts["classical"] == 96 and counts["operators"] == 20
    assert counts["bvp-failures"] == 448
    assert counts["march"] == counts["march-kinds"] == 0
    assert all(len(line) == 5 and len(bytes.fromhex(line[4])) == 32 for line in lines)


ROOT = Path(__file__).resolve().parents[1]


def test_bitcheck_against_its_own_tree_agrees(capsys):
    # the other tree's run is this same script in a subprocess
    assert bitcheck.main(["4", "--against", str(ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"{len(bitcheck.GROUPS)} of {len(bitcheck.GROUPS)} groups agree with {ROOT}"
    assert not any(line.startswith("differs") for line in out)


def test_bitcheck_runs_only_the_groups_it_is_given_in_their_order(capsys):
    assert bitcheck.main(["4", "--group", "cli", "--group", "operators"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["operators", "20"], ["cli", "1"]]
    # a group's hash runs over each case's repr and then its outcome's parts
    for line, group in zip(lines, ["operators", "cli"]):
        digest = hashlib.sha256()
        for case in (case for case in bitcheck.GROUPS[group] if case[5] <= 4):
            digest.update(repr(case).encode())
            for part in bitcheck.outcome(case):
                digest.update(bitcheck._bytes(part))
        assert line.split()[4] == digest.hexdigest()


def test_bitcheck_against_compares_only_the_groups_it_is_given(capsys):
    # the other tree's run hashes the same groups: had it hashed all, its
    # first line would be the classical group's and differ
    assert bitcheck.main(["4", "--group", "cli", "--against", str(ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("cli 1 cases sha256 ")
    assert out[1:] == [f"1 of 1 groups agree with {ROOT}"]


def test_bitcheck_refuses_an_unknown_group(capsys):
    with pytest.raises(SystemExit) as exc:
        bitcheck.main(["--group", "clii"])
    assert exc.value.code == 2
    assert "invalid choice: 'clii'" in capsys.readouterr().err


def test_bitcheck_against_names_each_differing_group(capsys, monkeypatch):
    # n <= 2 selects no case: both runs hash nothing, and one group's line
    # is then changed on this side only
    case_records = bitcheck.case_records

    def changed(groups, max_n):
        out = case_records(groups, max_n)
        out["march"] = ("march 0 cases sha256 " + "0" * 64, [])
        return out

    monkeypatch.setattr(bitcheck, "case_records", changed)
    assert bitcheck.main(["2", "--against", str(ROOT)]) == 1
    out = capsys.readouterr().out.splitlines()
    empty = hashlib.sha256().hexdigest()
    assert out[-2:] == [
        f"differs from {ROOT}: march 0 cases sha256 {empty}",
        f"{len(bitcheck.GROUPS) - 1} of {len(bitcheck.GROUPS)} groups agree with {ROOT}",
    ]


def test_bitcheck_against_says_how_far_a_differing_group_moved(capsys, monkeypatch):
    # on this side only, three classical cases that converge change: one
    # solution moves, one solve fails instead, one changes only its counters
    outcome = bitcheck.outcome
    cases = [case for case in bitcheck.GROUPS["classical"] if case[5] <= 4]
    moved, failed, counted = [case for case in cases if outcome(case)[1] == ""][:3]
    stall = "line search stalled at iteration 2 (residual 1.000e-11, target 1.000e-12)"

    def changed(case):
        parts = outcome(case)
        if case == moved:
            parts[0] = parts[0] + 1e-13
        elif case == failed:
            parts[1] = stall
        elif case == counted:
            parts[3] += " "
        return parts

    monkeypatch.setattr(bitcheck, "outcome", changed)
    assert bitcheck.main(["4", "--against", str(ROOT)]) == 1
    out = capsys.readouterr().out.splitlines()
    solution = outcome(moved)[0]
    largest = np.max(np.abs(solution + 1e-13 - solution))
    relative = largest / np.max(np.abs(solution))
    assert out[-4:] == [
        out[-4],
        f"  classical: 3 of {len(cases)} cases differ, 1 flip their kind; a solution converged on"
        f" both moves by at most {largest:.2e} at {bitcheck._label(moved)}"
        f" ({relative:.2e} relative)",
        f"  classical: {bitcheck._label(failed)}: converged -> line search stalled at iteration #"
        " (residual #, target #)",
        f"{len(bitcheck.GROUPS) - 1} of {len(bitcheck.GROUPS)} groups agree with {ROOT}",
    ]
    assert out[-4].startswith(f"differs from {ROOT}: classical {len(cases)} cases sha256 ")


def test_bitcheck_against_names_a_cli_case_whose_exit_or_verdict_flips(capsys, monkeypatch):
    # on this side only, the one cli case at n <= 4 passes instead of failing
    outcome = bitcheck.outcome
    (case,) = [case for case in bitcheck.GROUPS["cli"] if case[5] <= 4]

    def changed(case):
        parts = outcome(case)
        if case[0] == "cli":
            parts[0] = "0"
            parts[1] = parts[1].replace("FAIL", "PASS") + "wrote x.csv\n"
        return parts

    monkeypatch.setattr(bitcheck, "outcome", changed)
    assert bitcheck.main(["4", "--group", "cli", "--against", str(ROOT)]) == 1
    out = capsys.readouterr().out.splitlines()
    verdict = "convergence pendulum/vi sigma=-: last order # in [#, #] -> "
    assert out[-3:-1] == [
        "  cli: 1 of 1 cases differ, 1 flip their kind; a solution converged on both moves by"
        " at most 0.00e+00 (0.00e+00 relative)",
        f"  cli: {bitcheck._label(case)}: exit 1: {verdict}FAIL -> exit 0: {verdict}PASS",
    ]
    # a command that prints nothing on stdout is known by its stderr
    refused = ["2", "", "usage: fracvi\nerror: n-list 16,16\n"]
    assert bitcheck._kind(case, refused) == "exit 2: error: n-list #,#"


def test_bitcheck_against_refuses_a_checkout_without_the_package(capsys, monkeypatch, tmp_path):
    # the other pass would import whichever fracvi comes later on its path,
    # maybe this very tree's, and find that every group agrees
    (tmp_path / "src").mkdir()

    def started(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(bitcheck.subprocess, "Popen", started)
    with pytest.raises(SystemExit) as exc:
        bitcheck.main(["2", "--against", str(tmp_path)])
    assert exc.value.code == 2
    assert f"no fracvi package at {tmp_path / 'src' / 'fracvi' / '__init__.py'}" in (
        capsys.readouterr().err)


def test_bitcheck_against_imports_the_other_package_from_any_directory(capsys, monkeypatch,
                                                                       tmp_path):
    # run from this tree's src, the other pass still imports OTHER's package,
    # here one that exits 7 as it is imported
    (tmp_path / "src" / "fracvi").mkdir(parents=True)
    (tmp_path / "src" / "fracvi" / "__init__.py").write_text("raise SystemExit(7)\n")
    monkeypatch.chdir(ROOT / "src")
    assert bitcheck.main(["2", "--group", "cli", "--against", str(tmp_path)]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == f"bitcheck on {tmp_path} exited 7"


def test_bitcheck_cli_group_hashes_every_golden_command_with_its_directory_masked():
    # one case per command of tests/golden/; a case's outcome is its exit
    # code, stdout, stderr and each written file, the same in any directory
    cases = {case[3]: case for case in bitcheck.GROUPS["cli"]}
    assert {p.name for p in (ROOT / "tests" / "golden").iterdir()} <= cases.keys()
    parts = bitcheck.outcome(cases["solve"])
    assert parts[0] == "0" and parts[2] == ""
    assert "wrote {out}/solution.csv\nwrote {out}/solution_diag.csv\n" in parts[1]
    assert parts[3::2] == ["solution.csv", "solution_diag.csv"]
    assert all(isinstance(data, bytes) for data in parts[4::2])
    assert bitcheck.outcome(cases["solve"]) == parts


#: bitcheck's own cli commands -> (exit code, the end of their last line)
CLI_BRANCHES = {
    "convergence_free_exact": (0, "free/vi sigma=-: exact reproduction -> PASS"),
    "convergence_self_reference": (0, "pendulum/vi sigma=-: last order 2.07 in [1.8, 2.2] -> PASS"),
    "convergence_self_reference_fail": (1, ": last order 1.05 in [1.8, 2.2] -> FAIL"),
    "convergence_window_fail": (1, "harmonic/vi sigma=-: orders in [1.8, 2.2] -> FAIL"),
    "convergence_direct_window_fail": (1, "harmonic/direct sigma=-: orders in [0.7, 1.3] -> FAIL"),
    "convergence_fractional_fail": (1, "alpha=0.3 sigma=+: last order 0.44 >= 0.7 -> FAIL"),
    "convergence_config": (1, "harmonic/direct alpha=0.5 sigma=-: last order 0.58 >= 0.7 -> FAIL"),
    "convergence_repeated_n": (2, "error: n-list must be at least two strictly increasing values"),
    "convergence_solver_failure": (3, "non-finite residual (nan) at the initial iterate"),
    "convergence_tiny_ends": (1, "harmonic/vi sigma=-: orders in [1.8, 2.2] -> FAIL"),
    "glcheck_exact": (0, "alpha=1 beta=1: exact reproduction -> PASS"),
    "glcheck_exact_zero": (0, "alpha=1 beta=0: exact reproduction -> PASS"),
    "glcheck_window_fail": (1, "alpha=0.5 beta=0.5: orders in [0.7, 1.3] -> FAIL"),
    "glcheck_repeated_n": (2, "error: n-list must be at least two strictly increasing values"),
    "ibp_alpha_nan": (2, "error: fractional order must be finite and positive, got nan"),
    "ibp_alpha_zero": (2, "error: fractional order must be finite and positive, got 0.0"),
    "ibp_scale_overflow": (2, "GL scale h^-alpha leaves the float range at h = 1.5625e-302, alpha = 2.0"),
    "ibp_classical_sums_overflow": (2, "sums are not finite floats at h = 1.5625e-307"),
    "ibp_unit_alpha_sums_overflow": (2, "sums are not finite floats at h = 1.5625e-308, alpha = 1.0"),
    "ibp_fractional_sums_overflow": (2, "sums are not finite floats at h = 6.25e-309, alpha = 0.999"),
    "ibp_fractional_dim3": (0, "alpha=0.3: n=33 trials=100 max gap 5.235e-15 (tol 1.0e-10) -> PASS"),
}


def test_bitcheck_cli_group_reaches_each_order_study_branch():
    # each command beyond the goldens' ends in the verdict or refusal it was
    # added for: a line before "wrote ..." on stdout, else on stderr
    cases = {case[3]: case for case in bitcheck.GROUPS["cli"]}
    assert cases.keys() == bitcheck.CLI_COMMANDS.keys() == CLI_BRANCHES.keys() | {
        p.name for p in (ROOT / "tests" / "golden").iterdir()}
    for name, (code, end) in CLI_BRANCHES.items():
        parts = bitcheck.outcome(cases[name])
        lines = [line for line in (parts[1] + parts[2]).splitlines()
                 if not line.startswith("wrote")]
        assert (parts[0], lines[-1].endswith(end)) == (str(code), True), (name, lines[-1])
    assert bitcheck.outcome(cases["convergence_config"])[3::2] == ["orders.csv", "study.cfg"]
