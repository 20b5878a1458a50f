"""Uniform time grids, sampled trajectories, and index-windowed sequences.

A grid with ``n`` subintervals has nodes ``t_0 .. t_n``.  Every sequence is
a :class:`Sequence`: d >= 1 components per node over a contiguous window of
node indices inside ``{0, .., n}``.  A :class:`Trajectory` covers them all,
a :class:`ShiftedSequence` the one-sided window I_sigma (``{0, .., n-1}``
for plus, ``{1, .., n}`` for minus; :func:`_rows` is that rule's one home)
and a :class:`ResidualField` the window its scheme states.  Values are
immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Sign tags for the two one-sided conventions.  ``PLUS`` selects the
#: forward window {0, .., n-1}, ``MINUS`` the backward window {1, .., n}.
PLUS = 1
MINUS = -1


class DomainError(ValueError):
    """An argument violates the stated domain of an operation."""


def check_integer(value, name: str) -> int:
    """``value`` as an int, refused unless it is an integer: 2.7 is not
    truncated to 2, and True is not taken as 1."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_sigma(sigma) -> int:
    """``sigma`` as the int PLUS or MINUS; True and -1.0 are refused, as
    :func:`check_integer` refuses them."""
    value = check_integer(sigma, "sigma")
    if value not in (PLUS, MINUS):
        raise DomainError(f"sigma must be +1 or -1, got {sigma!r}")
    return value


def _rows(sigma: int, n: int) -> slice:
    """Rows of the nodes 0..n that the window I_sigma covers."""
    return slice(0, n) if sigma == PLUS else slice(1, n + 1)


def check_endpoints(first, last, dim=None, what="boundary", names=("qa", "qb")):
    """Two endpoint values as (dim,) float arrays, refused unless both have
    that shape (``dim=None``: the first one's length) and are finite."""
    a = np.atleast_1d(np.asarray(first, dtype=float))
    b = np.atleast_1d(np.asarray(last, dtype=float))
    dim = a.size if dim is None else dim
    if a.shape != (dim,) or b.shape != (dim,):
        raise DomainError(f"{what} values must have dim {dim}, got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError(f"{what} values must be finite, got {names[0]}={a}, {names[1]}={b}")
    return a, b


def sigma_label(sigma: int) -> str:
    return "+" if sigma == PLUS else "-"


def _freeze(values: np.ndarray) -> np.ndarray:
    # always copy, so a caller's array is never locked in place
    out = np.array(values, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into ``n`` subintervals (``n + 1`` nodes).

    Nodes are computed as ``a + k*h`` rather than by cumulative summation,
    and the right endpoint is forced to ``b`` exactly.
    """

    a: float
    b: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "n", check_integer(self.n, "grid n"))
        if not np.isfinite([self.a, self.b]).all():
            raise DomainError(f"grid ends must be finite, got a={self.a}, b={self.b}")
        if not self.b > self.a:
            raise DomainError(f"grid requires b > a, got a={self.a}, b={self.b}")
        if self.n < 2:
            raise DomainError(f"grid requires n >= 2 subintervals, got n={self.n}")
        nodes = self.a + self.h * np.arange(self.n + 1)
        nodes[-1] = self.b
        object.__setattr__(self, "nodes", _freeze(nodes))

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def node(self, k: int) -> float:
        return float(self.nodes[k])


def make_grid(a: float, b: float, n: int) -> Grid:
    """Build the uniform grid on [a, b] with ``n`` subintervals."""
    return Grid(a, b, n)


@dataclass(frozen=True)
class Sequence:
    """Values over a window of grid node indices: entry i, a (d,) vector
    with d >= 1, belongs to node ``k_start + i``; 1-d values mean d = 1.

    Built values are a frozen copy, and a window outside the nodes 0..n is
    refused.  A subclass fixes the window at ``n + _extra`` entries.
    Access outside the window is an error, never a silent wraparound.
    """

    grid: Grid
    k_start: int
    values: np.ndarray  # shape (m, d)

    _what, _extra = "sequence", None  # class attributes, not fields

    def __post_init__(self):
        object.__setattr__(self, "k_start", check_integer(self.k_start, "k_start"))
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise DomainError(f"expected 1-d or 2-d values, got shape {arr.shape}")
        m, n = arr.shape[0], self.grid.n
        if self._extra is not None and m != n + self._extra:
            raise DomainError(f"{self._what} needs {n + self._extra} entries, got {m}")
        if m < 1:
            raise DomainError(f"{self._what} must hold at least one entry")
        if arr.shape[1] < 1:
            raise DomainError(f"{self._what} values need d >= 1 components, got shape {arr.shape}")
        last = self.k_start + m - 1
        if self.k_start < 0 or last > n:
            raise DomainError(f"window {self.k_start}..{last} outside grid nodes 0..{n}")
        object.__setattr__(self, "values", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def indices(self) -> range:
        return range(self.k_start, self.k_start + self.values.shape[0])

    def value_at(self, k: int) -> np.ndarray:
        if k not in self.indices:
            raise IndexError(f"index {k} outside window {self.k_start}..{self.indices.stop - 1}")
        return self.values[k - self.k_start]


@dataclass(frozen=True)
class Trajectory(Sequence):
    """Discrete curve: one d-dimensional value per grid node, 0..n."""

    k_start: int = field(default=0, init=False)
    _what, _extra = "trajectory", 1


@dataclass(frozen=True, init=False)
class ShiftedSequence(Sequence):
    """Values over the one-sided window I_side: ``side=PLUS`` covers node
    indices {0, .., n-1}, ``side=MINUS`` {1, .., n}."""

    _what, _extra = "shifted sequence", 0

    def __init__(self, grid: Grid, side: int, values):
        super().__init__(grid, _rows(check_sigma(side), grid.n).start, values)

    @property
    def side(self) -> int:
        return PLUS if self.k_start == 0 else MINUS


@dataclass(frozen=True)
class ResidualField(Sequence):
    """Per-node residual of a discrete Euler-Lagrange scheme.

    The window start depends on the producing scheme; see each assembler.
    """

    _what = "residual field"


def sample(f: Callable[[float], object], grid: Grid) -> Trajectory:
    """Sample a curve at the grid nodes: Q_k = f(t_k)."""
    rows = [np.atleast_1d(np.asarray(f(t), dtype=float)) for t in grid.nodes]
    dims = {row.shape for row in rows}
    if len(dims) != 1:
        raise DomainError(f"curve returned inconsistent shapes: {sorted(dims)}")
    return Trajectory(grid, np.vstack(rows))


def restrict(traj: Trajectory, side: int) -> ShiftedSequence:
    """Restrict a trajectory to the one-sided window I_sigma."""
    return ShiftedSequence(traj.grid, side, traj.values[_rows(check_sigma(side), traj.grid.n)])


def _check_ibp_pair(f: Trajectory, g: Trajectory) -> None:
    """The refusals of an integration-by-parts pair: one grid, one dimension."""
    if f.grid != g.grid:
        raise DomainError("integration by parts requires a common grid")
    if f.dim != g.dim:
        raise DomainError(f"dimension mismatch: {f.dim} vs {g.dim}")


def inf_norm(x: Sequence) -> float:
    """Maximum absolute component over all entries."""
    return float(np.max(np.abs(x.values)))


def _fmt(x: float) -> str:
    """A float at full double precision, as every CSV and table writes it."""
    return f"{x:.17g}"


def _write_csv(path, header: list[str], rows) -> None:
    """The one CSV writer: LF-terminated rows of already formatted fields."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``k,t,q0[,q1,...]`` rows at full double precision."""
    header = ["k", "t"] + [f"q{c}" for c in range(traj.dim)]
    rows = (
        [str(k), _fmt(t)] + [_fmt(v) for v in traj.values[k]]
        for k, t in enumerate(traj.grid.nodes.tolist())
    )
    _write_csv(path, header, rows)


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`.

    A row that is ragged, not numeric or not finite is refused, naming the
    row; a time column that is not uniform is refused, not resampled.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["k", "t"]:
            raise DomainError(f"unexpected trajectory header: {header}")
        times = []
        rows = []
        for k, rec in enumerate(reader):
            if len(rec) != len(header):
                raise DomainError(
                    f"trajectory row k={k} has {len(rec)} fields, "
                    f"the header has {len(header)}: {rec}"
                )
            try:
                vals = [float(v) for v in rec]
            except ValueError:
                raise DomainError(f"trajectory row k={k} is not numeric: {rec}") from None
            if not all(map(math.isfinite, vals)):
                raise DomainError(f"trajectory row k={k} is not finite: {rec}")
            times.append(vals[1])
            rows.append(vals[2:])
    if len(rows) < 3:
        raise DomainError("trajectory file needs at least 3 nodes")
    grid = Grid(times[0], times[-1], len(rows) - 1)
    # node rounding is a few ulps of max |t|, far below the spacing h
    gap = np.abs(np.asarray(times) - grid.nodes)
    k = int(np.argmax(gap))
    if gap[k] > 8 * np.finfo(float).eps * max(abs(grid.a), abs(grid.b)):
        raise DomainError(
            f"non-uniform time column: t={times[k]!r} at k={k}, "
            f"the uniform grid has {grid.node(k)!r}"
        )
    return Trajectory(grid, np.asarray(rows))
