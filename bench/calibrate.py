"""Machine-speed calibration of the benchmark's timings.

The benchmark machine is a guest on a shared host, and its speed is not
steady: a fixed kernel runs at one speed for some seconds and 1.6 to 2
times slower for the next ones, switching within a fraction of a second
and, at times, staying slow for minutes.  A ``fenep run`` slows by about
the same factor, so the raw wall times of one code spread 25-40% across
40-second windows, wider than any useful regression bound.

The benchmark therefore times ``kernel``, a fixed piece of numpy/scipy
work that never touches fenep, in short bursts before the run, before
every step and after the run.  The run's times are reported as

    wall time x REFERENCE_S / (median kernel time of the bursts around it)

that is, in seconds of a machine on which the kernel takes REFERENCE_S.
A change to fenep changes the wall time but not the kernel, so it moves
the reported time by the same factor.  The kernel mixes what a step does:
a sparse LU and its solves, batched symmetric 2x2 eigendecompositions
and einsum products, and a pure-Python loop.  A kernel of the LU and
the loop alone, also tried, followed the runs less closely: its
calibrated run times spread more than the raw wall times.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: kernel time, in seconds, on the reference machine (2-vCPU Xeon guest)
#: when uncontended; the reported times are wall times at that speed
REFERENCE_S = 0.0155

#: kernel timings per burst; a burst takes about 0.1 s
BURST = 4

_GRID = 48
_rng = np.random.default_rng(12345)
_lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
_eye = sp.identity(_GRID)
_MATRIX = (sp.kron(_lap, _eye) + sp.kron(_eye, _lap)
           + 0.1 * sp.identity(_GRID * _GRID)).tocsc()
_RHS = _rng.random(_GRID * _GRID)
_TENSORS = _rng.random((10_000, 2, 2))
_TENSORS = _TENSORS + _TENSORS.transpose(0, 2, 1)


def kernel() -> float:
    """The fixed work that is timed; returns a checksum."""
    lu = splu(_MATRIX)
    x = _RHS
    for _ in range(4):
        x = lu.solve(x)
    w, v = np.linalg.eigh(_TENSORS)
    m = np.einsum("kij,kj,klj->kil", v, np.exp(-np.abs(w)), v)
    s = 0.0
    for i in range(10_000):
        s += (i % 7) * 0.5
    return float(x.sum() + m.sum() + s)


def burst() -> list:
    """BURST timings of the kernel, in seconds."""
    times = []
    for _ in range(BURST):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times
