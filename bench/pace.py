"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed shifts by
up to a half for seconds to minutes at a time.  Wall times of the same work
taken minutes apart therefore disagree by more than any useful regression
bound.  So the benchmark times a fixed reference kernel (no lagmesh) after
every operation, and reports each time scaled to the kernel's nominal
speed:

    scaled = measured * NOMINAL_S / (median kernel time around it)

A change to the program moves the measured times and not the kernel, so
the scaled times still show it; a change of the host's speed moves both,
and mostly cancels.  The host slows pure Python more than LAPACK and
LAPACK more than numpy array loops, so the kernel mixes the three.  The
measured times are kept in each run's record.
"""

import statistics
import time

import numpy as np
import scipy.linalg

# Median wall time of one kernel, timed after each operation of a run, on a
# 2-core 2.1 GHz Xeon VM in one of its faster spells (Python 3.11,
# numpy and scipy with OpenBLAS pinned to one thread).
NOMINAL_S = 0.7e-3
# Kernel samples on each side of an operation whose median scales it.
WINDOW = 10

_rng = np.random.default_rng(0)
_S = _rng.random((48, 48))
_S = _S + _S.T
_X = _rng.random((24, 24, 32))


def kernel():
    """One fixed piece of work of about half a millisecond."""
    s = 0.0
    for i in range(2000):  # Python float arithmetic
        x = i * 0.5
        s += x * x - s * 1e-9
    scipy.linalg.eigh(_S)  # LAPACK
    np.einsum("ijk,ljk->il", _X, _X)  # numpy array loop
    return s


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(samples):
    """Scale from measured to nominal speed for times taken among
    ``samples`` (kernel wall times)."""
    return NOMINAL_S / statistics.median(samples)


def factors(samples):
    """One scale per sample: from the median of the ``WINDOW`` samples on
    each side of it, so that a shift of the host's speed within a run is
    followed."""
    n = len(samples)
    return [factor(samples[max(0, i - WINDOW):min(n, i + WINDOW + 1)])
            for i in range(n)]
