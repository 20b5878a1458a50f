"""Golden outputs of the README commands.

Each case runs one README command in-process, with every CSV written to a
temporary directory, and compares stdout, the CSVs and the exit code with
the files under ``tests/golden/<case>/``.  Paths in stdout are written as
``{out}``.

Outputs that do not go through a Newton linear solve must match byte for
byte.  Newton-solved outputs may move at rounding level only, because the
linear solver's operation order is not part of the contract: values within
1e-10 absolute, observed orders within 1e-6, PASS/FAIL lines and exit codes
identical.  Of a Newton diagnostics CSV only the iteration column and the
final residual's target are compared.  The glcheck CSV is compared at
rounding level as well: its exact column is a ratio of Gamma values, and
Gamma implementations differ in the last bit.
"""

import csv
import io
import re
from pathlib import Path

import pytest

from fracvi.cli import main

GOLDEN = Path(__file__).parent / "golden"

VALUE_ATOL = 1e-10
ORDER_ATOL = 1e-6
SOLVE_TOL = 1e-12  # the classical `fracvi solve` residual target

BYTES = "bytes"
ROUNDED = "rounded"

#: case -> (argv, stdout comparison, CSV comparison)
CASES = {
    "ibp_classical": (
        ["ibp", "--n", "64", "--trials", "100", "--seed", "7"], BYTES, BYTES,
    ),
    "ibp_fractional": (
        ["ibp", "--alpha", "0.5", "--n", "64", "--trials", "100"], BYTES, BYTES,
    ),
    "coherence": (
        ["coherence", "--problem", "harmonic", "--alpha", "0.5", "--n", "32",
         "--seed", "1", "--out", "{out}/coherence.csv"],
        BYTES, BYTES,
    ),
    "convergence_vi": (
        ["convergence", "--problem", "harmonic", "--scheme", "vi",
         "--n-list", "16,32,64,128", "--out", "{out}/orders.csv"],
        ROUNDED, ROUNDED,
    ),
    "convergence_direct": (
        ["convergence", "--problem", "harmonic", "--scheme", "direct",
         "--n-list", "16,32,64,128", "--out", "{out}/orders.csv"],
        ROUNDED, ROUNDED,
    ),
    "convergence_fractional": (
        ["convergence", "--problem", "harmonic", "--scheme", "vi", "--alpha", "0.9",
         "--n-list", "8,16,32", "--out", "{out}/orders.csv"],
        ROUNDED, ROUNDED,
    ),
    "solve": (
        ["solve", "--problem", "harmonic", "--n", "64", "--qa", "0", "--qb", "1",
         "--out", "{out}/solution.csv"],
        ROUNDED, ROUNDED,
    ),
    "glcheck": (
        ["glcheck", "--alpha", "0.5", "--beta", "1", "--n-list", "64,128,256,512",
         "--out", "{out}/glcheck.csv"],
        BYTES, ROUNDED,
    ),
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_case(name: str, out_dir: Path, capsys) -> tuple[int, str]:
    """Run one case with outputs in ``out_dir``; return (exit code, stdout)."""
    argv = [arg.replace("{out}", str(out_dir)) for arg in CASES[name][0]]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out.replace(str(out_dir), "{out}")


def _close(expected: str, actual: str, atol: float) -> bool:
    return abs(float(expected) - float(actual)) <= atol


def _assert_text_rounded(expected: str, actual: str) -> None:
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    assert len(exp_lines) == len(act_lines)
    for exp, act in zip(exp_lines, act_lines):
        if "PASS" in exp or "FAIL" in exp:
            assert act == exp
            continue
        assert _NUMBER.sub("#", act) == _NUMBER.sub("#", exp), (exp, act)
        starts = [m.start() for m in _NUMBER.finditer(exp)]
        for start, e, a in zip(starts, _NUMBER.findall(exp), _NUMBER.findall(act)):
            atol = ORDER_ATOL if exp[:start].endswith("order=") else VALUE_ATOL
            assert _close(e, a, atol), (exp, act)


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _assert_csv_rounded(name: str, expected: str, actual: str) -> None:
    exp_rows, act_rows = _rows(expected), _rows(actual)
    assert act_rows[0] == exp_rows[0]
    assert len(act_rows) == len(exp_rows)
    header = exp_rows[0]
    if name.endswith("_diag.csv"):
        assert [r[0] for r in act_rows] == [r[0] for r in exp_rows]
        assert float(act_rows[-1][1]) <= SOLVE_TOL
        return
    for exp, act in zip(exp_rows[1:], act_rows[1:]):
        for column, e, a in zip(header, exp, act):
            if e == "" or a == "":
                assert a == e
            else:
                atol = ORDER_ATOL if column == "observed_order" else VALUE_ATOL
                assert _close(e, a, atol), (column, e, a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_command_matches_golden(name, tmp_path, capsys):
    _, stdout_mode, csv_mode = CASES[name]
    golden = GOLDEN / name
    code, stdout = run_case(name, tmp_path, capsys)

    assert code == int((golden / "exit_code.txt").read_text())
    expected_stdout = (golden / "stdout.txt").read_text()
    if stdout_mode == BYTES:
        assert stdout == expected_stdout
    else:
        _assert_text_rounded(expected_stdout, stdout)

    expected_csvs = sorted(p.name for p in golden.glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == expected_csvs
    for csv_name in expected_csvs:
        actual = (tmp_path / csv_name).read_bytes()
        expected = (golden / csv_name).read_bytes()
        if csv_mode == BYTES:
            assert actual == expected
        else:
            _assert_csv_rounded(csv_name, expected.decode(), actual.decode())
