"""Reference kernels: the host's speed next to each timed operation.

The benchmark's host is shared. Its speed flips between a fast and a slow
level, about 1.5x apart, in phases that last from seconds to minutes, so
the median PPO iteration time of whole 35 s runs of ss_ref moved by up to
0.7 of its value between equal runs (see NOTES.md). A fixed pure-Python
loop, run on the same thread right before an operation, slows down with
it: over six equal runs of ss_ref the median PPO iteration time moved from
43 to 64 ms, and its ratio to the adjacent kernel time from 205 to 213.

So each interpreter-bound operation carries the kernel time measured just
before it, and the end-to-end metrics use its time scaled to the kernel's
nominal time: seconds * nominal / kernel_seconds. The oracle's zoom search
and full-grid search are numpy-bound, and the Python loop does not track
them; they carry the times of numpy kernels of their shapes instead. The
kernels run no code of the package under test, so a change to the package
moves these numbers exactly as it moves the operation's own time. The raw
wall times are on the info line.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

import numpy as np

# the kernels' times on the 2-vCPU reference host in its fast phase
NOMINAL_S = 2.0e-4
NUMPY_NOMINAL_S = 1.5e-3
CHUNK_NOMINAL_S = 6.0e-2

_AXIS = np.array([0.3, -0.2, 0.5])


# The numpy kernels' inputs are made on first use, so that they add to the
# peak memory of the oracle workload only.
@functools.cache
def _points() -> np.ndarray:
    """One zoom round of a d_e=3 oracle search scores 41**3 points."""
    return np.random.default_rng(0).standard_normal((41 ** 3, 3))


@functools.cache
def _chunk() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full grid scores chunks of 200,000 points through a hidden layer."""
    rng = np.random.default_rng(1)
    return (rng.standard_normal((200_000, 3)), rng.standard_normal((3, 32)),
            rng.standard_normal((32, 8)))


def kernel() -> float:
    acc = 0.0
    slots = {}
    for i in range(1500):
        acc += math.sqrt(i + acc * 1e-9)
        slots[i & 63] = acc
    return acc


def numpy_kernel() -> int:
    points = _points()
    d = points - points[17]
    s = np.exp(-np.einsum("ij,ij->i", d, d)) + 0.1 * np.tanh(points @ _AXIS)
    return int(np.argmax(s))


def chunk_kernel() -> int:
    chunk, hidden, out = _chunk()
    s = np.tanh(chunk @ hidden)
    return int(np.argmax(np.linalg.norm(s @ out, axis=1)))


def reference(repeats: int = 1, run=kernel) -> float:
    """Wall time in seconds of the kernel `run`; the median of `repeats`."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, reference_s: float, nominal_s: float = NOMINAL_S) -> float:
    """An operation's time at the kernel's nominal speed."""
    return seconds * nominal_s / reference_s
