import math

import numpy as np
import pytest

import fracvi as fv


def test_make_grid_unit_interval():
    grid = fv.make_grid(0.0, 1.0, 4)
    assert grid.h == 0.25
    np.testing.assert_array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_make_grid_symmetric():
    grid = fv.make_grid(-1.0, 1.0, 2)
    assert grid.h == 1.0
    np.testing.assert_array_equal(grid.nodes, [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("a,b,n", [(0.3, 2.9, 7), (-5.0, 11.0, 200), (0.1, 0.2, 13)])
def test_grid_endpoints_exact(a, b, n):
    grid = fv.make_grid(a, b, n)
    assert grid.node(0) == a
    assert grid.node(n) == b


@pytest.mark.parametrize("a,b,n", [(0.1, 1.3, 97), (-2.7, 3.1, 200), (0.0, 1.0, 64)])
def test_grid_spacing_within_rounding(a, b, n):
    grid = fv.make_grid(a, b, n)
    diffs = np.diff(grid.nodes)
    # node rounding carries the coordinate scale max(|a|, |b|)
    bound = 4.0 * np.spacing(max(abs(a), abs(b)))
    assert np.all(np.abs(diffs - grid.h) <= bound)


def test_grid_nodes_monotone():
    grid = fv.make_grid(0.17, 0.18, 150)
    assert np.all(np.diff(grid.nodes) > 0)


@pytest.mark.parametrize("a,b,n", [
    (1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 1), (0.0, 1.0, 0),
    # not truncated: 2.7 built 2 subintervals
    (0.0, 1.0, 2.7), (0.0, 1.0, 3.0), (0.0, 1.0, "4"),
])
def test_make_grid_rejects_bad_input(a, b, n):
    with pytest.raises(fv.DomainError):
        fv.make_grid(a, b, n)


def test_make_grid_takes_numpy_integers():
    assert fv.make_grid(0.0, 1.0, np.int64(5)).n == 5


@pytest.mark.parametrize("first,last,dim,message", [
    ([0.0, 1.0], [1.0], None, r"boundary values must have dim 2, got \(2,\) and \(1,\)"),
    ([0.0], [0.0, 1.0], 1, r"boundary values must have dim 1, got \(1,\) and \(2,\)"),
    ([[0.0]], [1.0], 1, r"boundary values must have dim 1, got \(1, 1\) and \(1,\)"),
    ([0.0], [-math.inf], 1, r"boundary values must be finite, got qa=\[0.\], qb=\[-inf\]"),
    ([math.nan], [1.0], None, r"boundary values must be finite, got qa=\[nan\]"),
])
def test_check_endpoints_refuses(first, last, dim, message):
    with pytest.raises(fv.DomainError, match=message):
        fv.grids.check_endpoints(first, last, dim)


def test_check_endpoints_coerces_scalars_and_names_them():
    qa, qb = fv.grids.check_endpoints(0, 2.5, 1)
    assert qa.dtype == qb.dtype == float and qa.shape == qb.shape == (1,)
    message = r"initial values must be finite, got q0=\[0.\], q1=\[inf\]"
    with pytest.raises(fv.DomainError, match=message):
        fv.grids.check_endpoints(0.0, math.inf, 1, "initial", ("q0", "q1"))


def test_sample_identity_curve():
    traj = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 2))
    np.testing.assert_array_equal(traj.values.ravel(), [0.0, 0.5, 1.0])


def test_sample_constant_bit_for_bit():
    traj = fv.sample(lambda t: 0.7317315, fv.make_grid(-3.0, 5.0, 57))
    assert np.all(traj.values == traj.values[0])


def test_sample_quadratic():
    traj = fv.sample(lambda t: t * t, fv.make_grid(0.0, 3.0, 3))
    np.testing.assert_array_equal(traj.values.ravel(), [0.0, 1.0, 4.0, 9.0])


def test_sample_vector_curve():
    traj = fv.sample(lambda t: np.array([t, -t]), fv.make_grid(0.0, 1.0, 2))
    assert traj.dim == 2
    np.testing.assert_array_equal(traj.values[:, 1], -traj.values[:, 0])


def test_trajectory_rejects_wrong_length():
    with pytest.raises(fv.DomainError):
        fv.Trajectory(fv.make_grid(0.0, 1.0, 4), [1.0, 2.0, 3.0])


def test_inf_norm_simple():
    grid = fv.make_grid(0.0, 1.0, 2)
    assert fv.inf_norm(fv.Trajectory(grid, [0.0, -3.0, 2.0])) == 3.0
    assert fv.inf_norm(fv.Trajectory(grid, np.zeros(3))) == 0.0


def test_inf_norm_multidimensional():
    grid = fv.make_grid(0.0, 1.0, 2)
    seq = fv.ShiftedSequence(grid, fv.PLUS, [[1.0, -4.0], [2.0, 0.0]])
    assert fv.inf_norm(seq) == 4.0


def test_shifted_sequence_window_discipline():
    grid = fv.make_grid(0.0, 1.0, 4)
    plus = fv.ShiftedSequence(grid, fv.PLUS, np.arange(4.0))
    minus = fv.ShiftedSequence(grid, fv.MINUS, np.arange(4.0))
    assert list(plus.indices) == [0, 1, 2, 3]
    assert list(minus.indices) == [1, 2, 3, 4]
    assert plus.value_at(0)[0] == 0.0
    assert minus.value_at(4)[0] == 3.0
    with pytest.raises(IndexError):
        plus.value_at(4)
    with pytest.raises(IndexError):
        minus.value_at(0)
    with pytest.raises(IndexError):
        minus.value_at(-1)


def test_restrict_picks_window():
    grid = fv.make_grid(0.0, 1.0, 2)
    traj = fv.sample(lambda t: t, grid)
    np.testing.assert_array_equal(
        fv.restrict(traj, fv.MINUS).values.ravel(), [0.5, 1.0]
    )
    np.testing.assert_array_equal(
        fv.restrict(traj, fv.PLUS).values.ravel(), [0.0, 0.5]
    )


def test_residual_field_window_validation():
    grid = fv.make_grid(0.0, 1.0, 4)
    field = fv.ResidualField(grid, 1, np.ones((3, 1)))
    assert list(field.indices) == [1, 2, 3]
    with pytest.raises(fv.DomainError):
        fv.ResidualField(grid, 3, np.ones((3, 1)))
    with pytest.raises(IndexError):
        field.value_at(0)


def test_sequence_refuses_a_fractional_window_start():
    # it used to build, and then its indices raised a raw TypeError
    with pytest.raises(fv.DomainError, match="k_start must be an integer, got 1.5"):
        fv.ResidualField(fv.make_grid(0.0, 1.0, 4), 1.5, np.ones((2, 1)))


def test_sequence_refuses_a_bool_window_start():
    # True used to be taken as window start 1
    with pytest.raises(fv.DomainError, match="k_start must be an integer, got True"):
        fv.ResidualField(fv.make_grid(0.0, 1.0, 4), True, np.ones((2, 1)))


def test_values_immutable():
    traj = fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 4))
    with pytest.raises(ValueError):
        traj.values[0] = 9.0


def test_trajectory_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    grid = fv.make_grid(0.25, 1.75, 12)
    traj = fv.Trajectory(grid, rng.standard_normal((13, 2)))
    path = tmp_path / "traj.csv"
    fv.write_trajectory_csv(traj, path)
    back = fv.read_trajectory_csv(path)
    assert back.grid == traj.grid
    np.testing.assert_array_equal(back.values, traj.values)
    text = path.read_text()
    assert text.splitlines()[0] == "k,t,q0,q1"
    assert "\r" not in text


@pytest.mark.parametrize("a,b", [(float("nan"), 1.0), (0.0, float("inf")), (-math.inf, 0.0)])
def test_grid_rejects_non_finite_ends(a, b):
    with pytest.raises(fv.DomainError, match="grid ends must be finite"):
        fv.make_grid(a, b, 8)


@pytest.mark.parametrize("n", [64, 4096])
def test_trajectory_csv_roundtrip_off_unit_interval(tmp_path, n):
    grid = fv.make_grid(-0.3, 2.7, n)
    traj = fv.sample(lambda t: np.sin(t), grid)
    path = tmp_path / "traj.csv"
    fv.write_trajectory_csv(traj, path)
    back = fv.read_trajectory_csv(path)
    assert back.grid == grid
    np.testing.assert_array_equal(back.grid.nodes, grid.nodes)
    np.testing.assert_array_equal(back.values, traj.values)


def test_read_trajectory_csv_refuses_non_uniform_times(tmp_path):
    grid = fv.make_grid(-0.3, 2.7, 16)
    path = tmp_path / "traj.csv"
    fv.write_trajectory_csv(fv.sample(lambda t: t, grid), path)
    lines = path.read_text().splitlines()
    k, t, q = lines[6].split(",")
    lines[6] = f"{k},{float(t) + 1e-3 * grid.h!r},{q}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fv.DomainError, match="non-uniform time column"):
        fv.read_trajectory_csv(path)


@pytest.mark.parametrize("row,message", [
    ("5,0.3125,nan", "trajectory row k=5 is not finite"),
    ("5,0.3125,inf", "trajectory row k=5 is not finite"),
    ("5,0.3125,0.5,0.5", "trajectory row k=5 has 4 fields, the header has 3"),
    ("5", "trajectory row k=5 has 1 fields, the header has 3"),
    ("5,0.3125,abc", "trajectory row k=5 is not numeric"),
])
def test_read_trajectory_csv_refuses_bad_rows(tmp_path, row, message):
    path = tmp_path / "traj.csv"
    fv.write_trajectory_csv(fv.sample(lambda t: t, fv.make_grid(0.0, 1.0, 16)), path)
    lines = path.read_text().splitlines()
    lines[6] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(fv.DomainError, match=message):
        fv.read_trajectory_csv(path)


def test_read_trajectory_csv_refuses_empty_file(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("")
    with pytest.raises(fv.DomainError, match="unexpected trajectory header"):
        fv.read_trajectory_csv(path)


def test_one_windowed_sequence_type():
    grid = fv.make_grid(0.0, 1.0, 4)
    traj = fv.sample(lambda t: t, grid)
    seqs = [traj, fv.restrict(traj, fv.MINUS), fv.ResidualField(grid, 2, np.ones((2, 1)))]
    assert all(isinstance(s, fv.grids.Sequence) for s in seqs)
    assert [list(s.indices) for s in seqs] == [[0, 1, 2, 3, 4], [1, 2, 3, 4], [2, 3]]
    assert seqs[1].side == fv.MINUS and seqs[1].value_at(4)[0] == 1.0
    with pytest.raises(IndexError):
        traj.value_at(5)


@pytest.mark.parametrize("make", [
    lambda g: fv.Trajectory(g, np.zeros((3, 0))),
    lambda g: fv.ShiftedSequence(g, fv.PLUS, np.zeros((2, 0))),
    lambda g: fv.ResidualField(g, 1, np.zeros((1, 0))),
], ids=["trajectory", "shifted", "residual"])
def test_sequence_refuses_zero_components(make):
    with pytest.raises(fv.DomainError, match=r"need d >= 1 components, got shape \(\d, 0\)"):
        make(fv.make_grid(0.0, 1.0, 2))


def test_read_trajectory_csv_refuses_no_components(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("k,t\n0,0\n1,0.5\n2,1\n")
    with pytest.raises(fv.DomainError, match=r"trajectory values need d >= 1 components"):
        fv.read_trajectory_csv(path)


def test_check_sigma_returns_the_canonical_int():
    for sigma, want in [(1, fv.PLUS), (np.int64(-1), fv.MINUS)]:
        got = fv.grids.check_sigma(sigma)
        assert got == want and type(got) is int
    for bad in [True, False, np.True_, -1.0, 1.0, 0, 2, "+"]:
        with pytest.raises(fv.DomainError, match="sigma must be"):
            fv.grids.check_sigma(bad)

