import contextlib
import csv
import inspect
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fracvi as fv
from fracvi import cli
from fracvi.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    build_parser,
    main,
    run_coherence,
    run_convergence,
    run_glcheck,
    run_ibp,
    run_solve,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_ibp_classical_passes(capsys):
    assert main(["ibp", "--n", "64", "--trials", "100", "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "classical" in out and "PASS" in out


def test_ibp_fractional_passes(capsys):
    code = main(["ibp", "--alpha", "0.5", "--n", "64", "--trials", "100", "--seed", "3"])
    assert code == EXIT_OK
    assert "alpha=0.5" in capsys.readouterr().out


def test_ibp_alpha_one_reduces(capsys):
    assert main(["ibp", "--alpha", "1.0", "--n", "16", "--seed", "5"]) == EXIT_OK


def test_ibp_rejects_non_finite_alpha(capsys):
    assert main(["ibp", "--alpha", "nan"]) == EXIT_USAGE
    assert main(["ibp", "--alpha", "inf"]) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err


def test_ibp_failing_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_discrete_ibp", lambda f, g: (1.0, 2.0))  # gap 0.5
    assert main(["ibp", "--n", "8", "--trials", "3"]) == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().out.endswith("-> FAIL (3/3)\n")


def test_ibp_deterministic(capsys):
    main(["ibp", "--n", "32", "--seed", "11"])
    first = capsys.readouterr().out
    main(["ibp", "--n", "32", "--seed", "11"])
    assert capsys.readouterr().out == first


def test_coherence_rows_and_verdicts(tmp_path, capsys):
    out = tmp_path / "coherence.csv"
    code = main(
        ["coherence", "--problem", "harmonic", "--alpha", "0.5", "--n", "32",
         "--seed", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["scheme", "sigma", "alpha", "N", "gap", "verdict"]
    by_scheme = {row[0]: row for row in rows[1:]}
    assert by_scheme["classical"][5] == "NOT COHERENT"
    assert float(by_scheme["classical"][4]) > 0.1
    assert by_scheme["asymmetric"][5] == "COHERENT"
    assert by_scheme["fractional"][5] == "COHERENT"
    text = out.read_bytes().decode()
    assert "\r" not in text


def test_coherence_cubic_witness_gap(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coherence", "--n", "4", "--seed", "2", "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    classical = [r for r in rows[1:] if r[0] == "classical"][0]
    assert abs(float(classical[4]) - 6.0) <= 1e-12


def test_convergence_vi_order_two(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main(
        ["convergence", "--problem", "harmonic", "--scheme", "vi",
         "--n-list", "16,32,64,128", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["N", "h", "error", "observed_order"]
    orders = [float(r[3]) for r in rows[1:-1]]
    assert all(1.8 <= o <= 2.2 for o in orders)
    assert rows[-1][3] == ""  # last row has no next resolution to compare


def test_convergence_direct_marching_order_one(capsys):
    code = main(
        ["convergence", "--problem", "harmonic", "--scheme", "direct",
         "--n-list", "16,32,64,128"]
    )
    assert code == EXIT_OK
    assert "orders in [0.7, 1.3]" in capsys.readouterr().out


def test_convergence_direct_marches_the_sigma_it_is_given(tmp_path, capsys):
    # sigma + and sigma - are different direct schemes, so their studies differ
    errors = {}
    for sigma in "+-":
        out = tmp_path / f"orders{sigma}.csv"
        code = main(["convergence", "--problem", "harmonic", "--scheme", "direct",
                     "--sigma", sigma, "--n-list", "64,128,256", "--out", str(out)])
        assert code == EXIT_OK
        assert f"sigma={sigma}: orders in [0.7, 1.3] -> PASS" in capsys.readouterr().out
        errors[sigma] = [float(row[2]) for row in read_csv(out)[1:]]
    np.testing.assert_allclose(errors["+"], [1.007636e-03, 5.041586e-04, 2.521745e-04], rtol=1e-6)
    np.testing.assert_allclose(errors["-"], [9.196795e-04, 4.818848e-04, 2.465582e-04], rtol=1e-6)


def test_convergence_free_exact(capsys):
    code = main(["convergence", "--problem", "free", "--scheme", "vi",
                 "--n-list", "8,16,32"])
    assert code == EXIT_OK
    assert "exact reproduction" in capsys.readouterr().out


def test_convergence_fractional_self_reference(capsys):
    code = main(
        ["convergence", "--problem", "harmonic", "--scheme", "vi",
         "--alpha", "0.9", "--n-list", "8,16,32"]
    )
    assert code == EXIT_OK


def test_convergence_rejects_bad_n_list(capsys):
    assert main(["convergence", "--n-list", "32,16"]) == EXIT_USAGE


@pytest.mark.parametrize("argv,message", [
    (["--scheme", "asymmetric", "--alpha", "0.5"], "the asymmetric scheme takes no alpha"),
    (["--scheme", "direct", "--problem", "pendulum"],
     "direct classical marching needs an exact reference (free or harmonic)"),
    (["--problem", "pendulum", "--n-list", "3,5"],
     "self-reference requires every n to divide n_ref=20"),
    (["--omega", "3.141592653589793"],
     "harmonic reference undefined: sin(omega (b-a)) ~ 0"),
    (["--a", "-inf"], "harmonic phase omega (b - a) must be finite, got omega = 1.0, a = -inf, b = 1.0"),
    (["--b", "inf"], "harmonic phase omega (b - a) must be finite, got omega = 1.0, a = 0.0, b = inf"),
    (["--omega", "1e100", "--b", "1e300"],
     "harmonic phase omega (b - a) must be finite, got omega = 1e+100, a = 0.0, b = 1e+300"),
    (["--alpha", "0.5", "--n-list", "0,1"], "n-list values must be at least 2, got 0"),
])
def test_convergence_usage_refusals(capsys, argv, message):
    assert main(["convergence"] + argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"  # no traceback


def test_glcheck_rejects_repeated_n(capsys):
    assert main(["glcheck", "--n-list", "64,64,128"]) == EXIT_USAGE
    assert "strictly increasing" in capsys.readouterr().err


def test_run_convergence_api_rows():
    code, lines = run_convergence(
        problem="harmonic", scheme="vi", sigma=fv.MINUS, n_list=[16, 32, 64],
        alpha=None, omega=1.0, a=0.0, b=1.0, qa=None, qb=None, tol=1e-9,
        max_iter=50, out=None,
    )
    assert code == EXIT_OK
    assert any("PASS" in line for line in lines)


def test_run_convergence_api_refuses_an_unknown_scheme():
    with pytest.raises(fv.DomainError, match="scheme must be one of .*, got 'bogus'"):
        run_convergence(
            problem="harmonic", scheme="bogus", sigma=fv.MINUS, n_list=[16, 32],
            alpha=None, omega=1.0, a=0.0, b=1.0, qa=None, qb=None, tol=1e-9,
            max_iter=50, out=None,
        )


def test_convergence_without_an_observable_order_fails(monkeypatch, capsys):
    # an order needs two nonzero errors in a row; without one the study fails
    monkeypatch.setattr(cli, "_observed_orders", lambda ns, errors: [None] * len(ns))
    code = main(["convergence", "--problem", "harmonic", "--scheme", "vi", "--n-list", "8,16"])
    assert code == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().out.endswith(": no observable order -> FAIL\n")


def test_solve_writes_trajectory_and_diagnostics(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code = main(
        ["solve", "--problem", "harmonic", "--n", "64", "--qa", "0",
         "--qb", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    traj = fv.read_trajectory_csv(out)
    assert traj.grid.n == 64
    assert traj.values[0, 0] == 0.0 and traj.values[-1, 0] == 1.0
    diag_rows = read_csv(tmp_path / "sol_diag.csv")
    assert diag_rows[0] == ["iter", "residual_norm", "step_norm"]
    assert float(diag_rows[-1][1]) <= 1e-12


def test_solve_free_is_linear(tmp_path):
    out = tmp_path / "free.csv"
    code = main(["solve", "--problem", "free", "--n", "16", "--qa", "0.5",
                 "--qb", "2.5", "--out", str(out)])
    assert code == EXIT_OK
    traj = fv.read_trajectory_csv(out)
    expected = 0.5 + 2.0 * np.arange(17) / 16
    assert np.max(np.abs(traj.values.ravel() - expected)) <= 1e-12


def test_solve_fractional_residual_target(tmp_path, capsys):
    out = tmp_path / "frac.csv"
    code = main(
        ["solve", "--problem", "harmonic", "--scheme", "vi", "--alpha", "0.5",
         "--n", "64", "--out", str(out)]
    )
    assert code == EXIT_OK
    diag_rows = read_csv(tmp_path / "frac_diag.csv")
    assert float(diag_rows[-1][1]) <= 1e-10


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(
        ["solve", "--problem", "pendulum", "--n", "16", "--qa", "0", "--qb", "3",
         "--tol", "1e-300", "--max-iter", "2", "--out", str(out)]
    )
    assert code == EXIT_SOLVER


def test_solve_at_large_n(tmp_path, capsys):
    # the classical Newton system stays block tridiagonal: a dense Jacobian
    # at this size would take 74.5 GiB
    out = tmp_path / "big.csv"
    code = main(["solve", "--n", "100000", "--tol", "1e-5", "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("solved harmonic/vi-classical sigma=- n=100000")
    assert fv.read_trajectory_csv(out).grid.n == 100000


def test_solve_singular_jacobian_exit_code(tmp_path, monkeypatch, capsys):
    # a constant force and no kinetic term: every Jacobian block is zero
    static = fv.Lagrangian(
        L=lambda x, v, t: np.sum(x, axis=-1),
        Lx=lambda x, v, t: np.ones_like(x),
        Lv=lambda x, v, t: np.zeros_like(v),
        dim=1,
    )
    monkeypatch.setattr("fracvi.cli.builtin_problem", lambda *args, **kwargs: static)
    code = main(["solve", "--n", "256", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_SOLVER
    assert "singular" in capsys.readouterr().err


def test_solve_deterministic_output(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["solve", "--problem", "harmonic", "--n", "32"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_glcheck_orders(tmp_path, capsys):
    out = tmp_path / "gl.csv"
    code = main(
        ["glcheck", "--alpha", "0.5", "--beta", "1", "--n-list", "64,128,256",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = read_csv(out)
    assert rows[0] == ["N", "h", "approx", "exact", "error", "observed_order"]
    assert all(0.7 <= float(r[5]) <= 1.3 for r in rows[1:-1])


def test_glcheck_beta_two(capsys):
    code = main(["glcheck", "--alpha", "0.3", "--beta", "2", "--n-list", "64,128,256"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    exact = fv.rl_monomial_derivative(2.0, 0.3, 1.0)
    assert f"{exact:.6g}"[:6] in out


def test_glcheck_alpha_one_exact(capsys):
    # backward difference of t is exactly 1 everywhere, so errors sit at
    # machine level and order checks are skipped
    code = main(["glcheck", "--alpha", "1.0", "--beta", "1", "--n-list", "16,32"])
    assert code == EXIT_OK
    assert "exact reproduction" in capsys.readouterr().out


@pytest.mark.parametrize("beta, b", [("400", "1"), ("169", "1000")])
def test_glcheck_refuses_an_overflowing_closed_form(capsys, beta, b):
    # Gamma(401) and 1000^168.5 lie past the float range
    argv = ["glcheck", "--alpha", "0.5", "--beta", beta, "--b", b, "--n-list", "8,16"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"overflows a float at beta = {float(beta)}" in captured.err and captured.out == ""


@pytest.mark.parametrize("beta", ["-0.5", "-0.999", "nan"])
def test_glcheck_refuses_negative_beta(capsys, beta):
    # (t-a)^beta is sampled at t = a, where a negative power is infinite
    argv = ["glcheck", "--alpha", "0.5", "--beta", beta, "--n-list", "8,16"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "beta must be >= 0" in captured.err and captured.out == ""


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 728. TiB")

    monkeypatch.setattr("fracvi.cli.solve_bvp_newton", no_memory)
    assert main(["solve", "--n", "64", "--alpha", "0.5"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 728. TiB\n"


@pytest.mark.parametrize("argv,value", [
    (["ibp", "--n", "9223372036854775807"], "n=9223372036854775807"),
    (["ibp", "--n", "99999999999999999999"], "n=99999999999999999999"),
    (["ibp", "--n", "4", "--dim", "2305843009213693952"], "dim=2305843009213693952"),
    (["solve", "--n", "99999999999999999999"], "n=99999999999999999999"),
    (["convergence", "--n-list", "2,99999999999999999999"], "n=99999999999999999999"),
    (["coherence", "--n", "4611686018427387904"], "n=4611686018427387904"),
    (["coherence", "--dim", "99999999999999999999", "--n", "4"], "dim=99999999999999999999"),
    (["glcheck", "--n-list", "2,99999999999999999999"], "n=99999999999999999999"),
], ids=["ibp-n-index", "ibp-n", "ibp-dim", "solve", "convergence", "coherence-n",
        "coherence-dim", "glcheck"])
def test_size_no_array_holds_is_a_usage_error(capsys, argv, value):
    # refused by the size rule before any allocation, not by numpy
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and value in captured.err
    assert "more than a float array can hold" in captured.err and captured.out == ""


def test_usage_error_exit_code(capsys):
    assert main(["glcheck", "--alpha", "abc"]) == EXIT_USAGE
    assert main(["nope"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 16\nseed = 7\ntrials = 20  # comment\n")
    assert main(["ibp", "--config", str(cfg)]) == EXIT_OK
    out_cfg = capsys.readouterr().out
    assert "n=16" in out_cfg and "trials=20" in out_cfg
    # explicit flag wins over the file
    assert main(["ibp", "--config", str(cfg), "--n", "8"]) == EXIT_OK
    assert "n=8" in capsys.readouterr().out


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    builds = []
    build = cli._build_parsers

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parsers", counted)
    cli._shared_parser.cache_clear()
    assert main(["ibp", "--trials", "2"]) == EXIT_OK
    assert main(["glcheck", "--n-list", "8,16"]) == EXIT_OK
    assert len(builds) == 1
    assert "n=64" in capsys.readouterr().out
    # a --config call parses with a parser of its own, whose defaults the
    # next call does not see
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 16\n")
    assert main(["ibp", "--config", str(cfg), "--trials", "2"]) == EXIT_OK
    assert "n=16" in capsys.readouterr().out
    assert main(["ibp", "--trials", "2"]) == EXIT_OK
    assert "n=64" in capsys.readouterr().out
    assert len(builds) == 2


def test_config_skips_blank_and_comment_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a whole-line comment\n\n   \nn = 16\n  # indented comment\n")
    assert main(["ibp", "--config", str(cfg), "--trials", "2"]) == EXIT_OK
    assert "ibp classical: n=16 trials=2" in capsys.readouterr().out


def test_config_rejects_malformed(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    assert main(["ibp", "--config", str(cfg)]) == EXIT_USAGE


def test_config_rejects_non_utf8(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe n=3\n")
    assert main(["ibp", "--config", str(cfg)]) == EXIT_USAGE
    assert f"config file {cfg} is not UTF-8 text" in capsys.readouterr().err


#: Each subcommand's handler and the defaults it is called with.
DEFAULTS = {
    "ibp": (run_ibp, dict(n=64, trials=100, seed=0, alpha=None, a=0.0, b=1.0, dim=1)),
    "coherence": (run_coherence, dict(
        problem="harmonic", omega=1.0, sigma=fv.MINUS, alpha=None, n=32, seed=0,
        dim=1, a=0.0, b=1.0, out=None,
    )),
    "convergence": (run_convergence, dict(
        problem="harmonic", scheme="vi", sigma=fv.MINUS, n_list=[16, 32, 64, 128],
        alpha=None, omega=1.0, a=0.0, b=1.0, qa=None, qb=None, tol=1e-9,
        max_iter=50, out=None,
    )),
    "solve": (run_solve, dict(
        problem="harmonic", scheme="vi", sigma=fv.MINUS, alpha=None, n=64, a=0.0,
        b=1.0, qa=[0.0], qb=[1.0], omega=1.0, out="solution.csv", diag=None,
        tol=None, max_iter=50,
    )),
    "glcheck": (run_glcheck, dict(
        alpha=0.5, beta=1.0, n_list=[64, 128, 256, 512], a=0.0, b=1.0, out=None,
    )),
}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_parser_defaults(command):
    handler, expected = DEFAULTS[command]
    args = build_parser().parse_args([command])
    assert args.handler is handler
    takes = inspect.signature(handler).parameters
    got = {k: v for k, v in vars(args).items() if k in takes}
    got = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in got.items()}
    assert got == expected


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_each_subcommand_declares_exactly_its_handlers_arguments(command):
    # --seed only where a handler draws with it; --config is main's own
    handler, _ = DEFAULTS[command]
    dests = {action.dest for action in cli._build_parsers()[1][command]._actions}
    assert dests - {"help"} == set(inspect.signature(handler).parameters) | {"config"}


def test_help_shows_defaults(capsys):
    assert main(["glcheck", "--help"]) == EXIT_OK
    assert "(default: 64,128,256,512)" in capsys.readouterr().out


@pytest.mark.parametrize("command,line,flag,value", [
    ("coherence", "n = abc", "--n", "'abc'"),
    ("coherence", "sigma = x", "--sigma", "'x'"),
    ("ibp", "trials = 0", "--trials", "'0'"),
])
def test_config_values_parsed_like_flags(tmp_path, capsys, command, line, flag, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main([command, "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and value in err
    assert "Traceback" not in err


def test_config_flag_wins_over_bad_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = abc\n")
    assert main(["coherence", "--config", str(cfg), "--n", "8"]) == EXIT_OK


def test_config_ignores_other_and_internal_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-list = 8,16\nbeta = x\nseed = x\nhandler = x\ncommand = x\nconfig = x\n")
    assert main(["convergence", "--problem", "free", "--config", str(cfg)]) == EXIT_OK
    assert "N=    8" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["coherence", "--dim", "0"],
    ["ibp", "--dim", "0"],
    ["ibp", "--trials", "-1"],
    ["ibp", "--trials", "abc"],
])
def test_counts_must_be_positive(capsys, argv):
    assert main(argv) == EXIT_USAGE
    assert f"positive integer, got {argv[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ibp", "coherence"])
def test_seed_must_be_non_negative(capsys, command):
    assert main([command, "--seed", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: argument --seed: expected a non-negative integer, got '-1'" in err


def test_convergence_rejects_a_non_integer_n_list(capsys):
    assert main(["convergence", "--n-list", "8,x"]) == EXIT_USAGE
    assert "argument --n-list: bad integer list '8,x'" in capsys.readouterr().err


def test_sigma_plus_reaches_every_row(capsys):
    assert main(["coherence", "--sigma", "+", "--n", "8", "--alpha", "0.5"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4 and all("sigma=+" in row for row in rows[:3])


def test_self_referenced_classical_verdict(capsys):
    argv = ["convergence", "--problem", "pendulum", "--scheme", "vi", "--n-list", "8,16"]
    assert main(argv) == EXIT_OK
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "convergence pendulum/vi sigma=-: last order 2.08 in [1.8, 2.2] -> PASS"


GRID_RANGE = "must be finite with finite reciprocals"


@pytest.mark.parametrize("argv,at", [
    (["ibp", "--b", "1e-305"], "h = 1.5625e-307"),
    (["ibp", "--alpha", "1", "--b", "1e-306"], "h = 1.5625e-308, alpha = 1.0"),
    (["ibp", "--b", "1e-307", "--n", "16", "--alpha", "0.999"], "h = 6.25e-309, alpha = 0.999"),
])
def test_ibp_sums_outside_the_float_range_are_a_usage_error(capsys, argv, at):
    # a partial sum overflows, or single terms are +-inf
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"error: integration-by-parts sums are not finite floats at {at}\n" == captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["ibp", "--b", "1e-300", "--alpha", "2"],
     "GL scale h^-alpha leaves the float range at h = 1.5625e-302, alpha = 2.0"),
    (["ibp", "--alpha", "1e300"],
     "GL scale h^-alpha leaves the float range at h = 0.015625, alpha = 1e+300"),
    (["ibp", "--b", "1e-100", "--alpha", "3.05"],
     "GL scale h^-alpha leaves the float range at h = 1.5625e-102, alpha = 3.05"),
    (["ibp", "--b", "1e-307"], f"grid span b - a = 1e-307 and step h = 1.5625e-309 {GRID_RANGE}"),
    (["glcheck", "--a", "-1e308", "--b", "1e308"], f"grid span b - a = inf and step h = inf {GRID_RANGE}"),
    (["ibp", "--a", "-1e308", "--b", "1e308"], f"grid span b - a = inf and step h = inf {GRID_RANGE}"),
    (["ibp", "--b", "64", "--alpha", "1e300"], "GL weights overflow a float at alpha = 1e+300, n = 64"),
])
def test_grid_or_gl_scale_outside_the_float_range_is_a_usage_error(capsys, argv, message):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


@pytest.mark.parametrize("argv,message", [
    (["glcheck", "--b", "inf"], "grid ends must be finite, got a=0.0, b=inf"),
    (["solve", "--a", "nan"], "grid ends must be finite, got a=nan"),
    (["solve", "--qa", "nan"], "boundary values must be finite, got qa=[nan]"),
    (["solve", "--qb", "inf"], "boundary values must be finite"),
    (["solve", "--qa", "0,1"], "boundary values must have dim 2, got (2,) and (1,)"),
])
def test_non_finite_ends_refused(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["coherence", "--omega", "nan"],
    ["solve", "--omega", "inf"],
    ["convergence", "--omega", "nan"],
    ["solve", "--omega", "1e200"],
    ["convergence", "--scheme", "vi", "--omega", "1e200"],
])
def test_non_finite_omega_refused(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
    assert "omega must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code,message", [
    (["coherence", "--omega", "1e154"], EXIT_USAGE,
     "error: classical embedding: the direct residual is not finite at k=2"),
    (["convergence", "--scheme", "direct", "--omega", "1e154"], EXIT_SOLVER,
     "march step k=2: non-finite residual (inf) at the initial iterate"),
])
def test_overflowing_potential_is_reported_without_warnings(capsys, argv, code, message):
    # omega^2 is finite but the potential overflows; under the suite's
    # filterwarnings = error a numpy RuntimeWarning would raise here
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Warning" not in err


@pytest.mark.parametrize("cmd", ["solve", "convergence"])
@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_refused(tmp_path, capsys, cmd, tol):
    argv = [cmd, "--n-list", "16,32"] if cmd == "convergence" else [cmd, "--n", "16"]
    assert main(argv + ["--tol", tol, "--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
    assert f"tol must be positive and finite, got {tol}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


NEGATIVE_FORMS = ["-1e-3", "-2.5E-3"]


@pytest.mark.parametrize("text", NEGATIVE_FORMS)
def test_every_number_flag_reads_negative_exponent_forms(text):
    # argparse's own test reads only -1 and -.5 as numbers, anything else
    # starting with '-' as a flag
    parser, commands = cli._build_parsers()
    checked = 0
    for command, subparser in commands.items():
        for action in subparser._actions:
            if action.type not in (float, cli._vector):
                continue
            args = parser.parse_args([command, action.option_strings[0], text])
            value = getattr(args, action.dest)
            assert np.ravel(value).tolist() == [float(text)], (command, action.dest, value)
            checked += 1
    assert checked >= 20


def test_vector_flag_reads_a_negative_list(tmp_path):
    args = build_parser().parse_args(["solve", "--qa", "-1e-3,-inf", "--qb", "-2,1"])
    assert args.qa.tolist() == [-1e-3, -np.inf] and args.qb.tolist() == [-2.0, 1.0]


def test_solve_starts_at_a_negative_exponent_form(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    assert main(["solve", "--qa", "-1e-5", "--out", str(out)]) == EXIT_OK
    assert fv.read_trajectory_csv(out).values[0, 0] == -1e-5


@pytest.mark.parametrize("argv,message", [
    (["solve", "--qa", "-inf"], "boundary values must be finite, got qa=[-inf]"),
    (["solve", "--qb", "-inf"], "boundary values must be finite, got qa=[0.], qb=[-inf]"),
    (["convergence", "--qa", "-inf"], "boundary values must be finite, got qa=[-inf]"),
    (["convergence", "--qb", "-inf"], "boundary values must be finite, got qa=[1.], qb=[-inf]"),
    (["solve", "--alpha", "-1e-1"], "fractional order must lie in (0, 1], got -0.1"),
    (["glcheck", "--alpha", "-1e-1"], "fractional order must lie in (0, 1], got -0.1"),
])
def test_negative_values_reach_the_refusals(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["solve", "--qa", "-1,x"], "argument --qa: bad vector '-1,x'"),
    (["solve", "--alpha", "-1x"], "argument --alpha: invalid float value: '-1x'"),
    (["solve", "--n", "-.5"], "argument --n: invalid int value: '-.5'"),
    (["glcheck", "--a", "-nanx"], "argument --a: invalid float value: '-nanx'"),
])
def test_malformed_negative_value_is_refused_by_its_converter(tmp_path, capsys, argv, message):
    # read as a value, not as a flag: the flag's own converter refuses it
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_python_m_fracvi(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    argv = [sys.executable, "-m", "fracvi", "ibp", "--n", "16", "--trials", "5"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    assert "PASS" in done.stdout
    usage = subprocess.run(argv[:3] + ["ibp", "--n", "1"], cwd=tmp_path, env=env,
                           capture_output=True, text=True)
    assert usage.returncode == EXIT_USAGE


# --------------------------------------------------------------------------
# fuzz: no argv ends in a traceback

#: Edge values of the fuzz: signed zeros, a negative one, floats at the
#: ends of the range (1e154 squares to about 1e308), non-finite and
#: malformed ones.
FUZZ_EDGES = ["0", "-0", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "1e154",
              "inf", "-inf", "nan", "x", ""]
#: Counts (n, n-list entries, trials, dim, max-iter) stay at or below 64: a
#: fractional study solves densely at n_ref = 4 * max(n-list), so larger
#: counts cost run time, not new code paths.
FUZZ_MAX_COUNT = 64


def _fuzz_values(action):
    """The strategy of values for one flag of the parser's table: a plain
    value three times in four (for a float flag, its default or 0.5), else
    an edge one.  A flag of a type the fuzz does not know fails here, so no
    new flag goes unfuzzed."""
    edges = st.sampled_from(FUZZ_EDGES)
    counts = st.integers(-2, FUZZ_MAX_COUNT).map(str)
    if action.choices is not None:
        plain, edge = st.sampled_from(action.choices), st.just("bogus")
    elif action.type is float:
        near = ["0.5", "1"] if action.default is None else [str(action.default), "0.5"]
        plain, edge = st.sampled_from(near), edges
    elif action.type in (int, cli._count, cli._seed):
        plain, edge = st.integers(2, 16).map(str), st.one_of(counts, edges)
    elif action.type is cli._int_list:
        increasing = st.lists(st.integers(2, FUZZ_MAX_COUNT), min_size=2, max_size=4,
                              unique=True).map(sorted)
        plain = increasing.map(lambda ns: ",".join(map(str, ns)))
        edge = st.one_of(st.lists(counts, min_size=1, max_size=4).map(",".join), edges)
    elif action.type is cli._vector:
        plain = st.lists(st.sampled_from(["0", "0.5", "1"]), min_size=1, max_size=2).map(",".join)
        edge = st.one_of(st.lists(edges, min_size=1, max_size=2).map(",".join), edges)
    elif action.type is cli._sigma:
        plain, edge = st.sampled_from(["+", "-"]), st.just("0")
    elif action.type is None:  # a path
        plain, edge = st.sampled_from(["out.csv", "out"]), st.sampled_from([".", "no/out.csv"])
    else:
        raise AssertionError(f"no fuzz values for {action.option_strings} of type {action.type}")
    return st.one_of(plain, plain, plain, edge)


#: Each subcommand's flags (long name, value strategy), read from the parser
#: itself; --help exits at once and --config is drawn apart.
FUZZ_FLAGS = {
    name: [
        (action.option_strings[-1], _fuzz_values(action))
        for action in sub._actions
        if action.option_strings and action.dest not in ("help", "config")
    ]
    for name, sub in cli._build_parsers()[1].items()
}


@st.composite
def fuzz_argv(draw):
    """A subcommand, up to three of its flags with drawn values, maybe an
    unknown flag, and maybe a --config file (drawn key=value lines, maybe a
    comment or a malformed line) or a --config path that is no file.
    Returns the argv and the config file's lines."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    picks = st.integers(0, len(flags) - 1)
    argv = [command]
    for i in draw(st.lists(picks, max_size=3)):
        flag, values = flags[i]
        argv += [flag, draw(values)]
    if draw(st.sampled_from([False] * 19 + [True])):
        argv.append("--bogus")
    config = draw(st.sampled_from(["none"] * 5 + ["file"] * 4 + ["path"]))
    lines = []
    if config == "file":
        for i in draw(st.lists(picks, min_size=1, max_size=2)):
            flag, values = flags[i]
            key = flag[2:] if draw(st.booleans()) else flag[2:].replace("-", "_")
            lines.append(f"{key} = {draw(values)}")
        lines += draw(st.lists(st.sampled_from(["# note", "not a pair", "other = 1"]), max_size=1))
        argv += ["--config", "run.cfg"]
    elif config == "path":
        argv += ["--config", draw(st.sampled_from(["missing.cfg", "."]))]
    return argv, lines


def test_no_argv_escapes_the_exit_codes(tmp_path, monkeypatch):
    # derandomized: every run checks the same 400 draws, in about 2 s
    monkeypatch.chdir(tmp_path)  # solve writes its CSVs to the working directory

    @settings(derandomize=True, deadline=None, database=None, max_examples=400,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzz_argv())
    def check(drawn):
        argv, lines = drawn
        (tmp_path / "run.cfg").write_text("".join(line + "\n" for line in lines))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning would reach stderr
                code = main(argv)
        assert code in (0, 1, 2, 3), argv
        if code == EXIT_USAGE:
            text = err.getvalue()
            assert text.startswith("error: ") or "usage: fracvi" in text, (argv, text)

    check()
