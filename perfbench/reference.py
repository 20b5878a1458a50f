"""A fixed reference workload that measures how fast the host runs right now.

The host this benchmark was written on changes speed by up to a factor of
two, in phases of seconds to minutes.  Raw op times therefore spread far
more between runs than any code change the benchmark must resolve.
``probe`` times a small, fixed workload of the kind that dominates
fracvi's ops: a per-node loop of scalar numpy calls, like a residual
assembly's Lagrangian callbacks.  It uses numpy only and no fracvi code,
so a change to fracvi cannot move it.  An op timed between two probes is
rescaled by ``REF_PROBE_S / probe time``: the time the op would have taken
on a host where the probe takes ``REF_PROBE_S``.

On a 2-core x86_64 host, over 3 minutes of fractional (n = 64, 128) and
classical (n = 128) solves, the op time over this probe's time spread
0.03-0.05 (IQR / median of 10-op medians), against 0.33-0.44 for the raw
op time.  Dense matvec and elimination kernels tracked the ops far worse
(0.14-0.30), alone or mixed in.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: The probe's time on a 2-core x86_64 host in its usual phase.  Only a
#: fixed scale: reported times are "seconds at this probe speed".
REF_PROBE_S = 0.002

#: Repetitions per probe; the probe's time is their median.
REPEATS = 5

_NODES = np.random.default_rng(0).standard_normal((200, 1))
_OUT = np.empty((200, 1))
_W2 = 1.7


def _callbacks() -> None:
    """A residual assembly's per-node loop over Lagrangian callbacks."""
    lx = lambda x: _W2 * np.sin(np.asarray(x, dtype=float))
    lag = lambda x: _W2 * float(np.sum(1.0 - np.cos(x)))
    for k in range(len(_NODES)):
        x = _NODES[k]
        _OUT[k] = lx(x) - 0.5 * lag(x)


def probe_once() -> float:
    """Seconds one run of the reference workload takes now."""
    t0 = perf_counter()
    _callbacks()
    return perf_counter() - t0


def probe() -> float:
    """Seconds the reference workload takes now: the median of REPEATS runs."""
    return statistics.median(probe_once() for _ in range(REPEATS))
