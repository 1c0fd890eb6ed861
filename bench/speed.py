"""How fast the computer runs right now, measured with a fixed reference kernel.

On a shared 2-core VM the speed of one core drifts by 10-50% over
seconds to minutes.  CPU time drifts with wall time, so the slowdown is
not scheduler wait inside the VM but other tenants' load on the host.
Runs taken a minute apart then differ more than any change worth
measuring.  The reference kernel mixes the work quador does (interpreter
loops, numpy element-wise passes over ~1 MB arrays, small dense products)
and depends only on Python and numpy, never on quador, so a change to the
program cannot change it.  The benchmark times the kernel between command
samples and rescales command times to the speed at which one kernel call
takes ``NOMINAL_S`` seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.1  # the kernel's time on this benchmark's reference scale
_X = np.linspace(-1.0, 1.0, 1 << 17)
_M = np.random.default_rng(0).random((64, 64))


def kernel() -> float:
    acc = 0
    for i in range(120_000):
        acc += (i * i) % 7
    x = _X
    for _ in range(36):
        x = np.sqrt(x * x + 1.0) - np.sin(x)
    m = _M
    for _ in range(120):
        m = np.tanh(m @ _M / 64.0)
    return acc + float(x[0]) + float(m[0, 0])


def reference_seconds() -> float:
    """Wall time of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(reference_times: list[float]) -> float:
    """Factor that takes a time measured during the run to the reference
    scale: ``NOMINAL_S`` over the mean kernel time.

    Means, not medians: the machine flips between a fast and a slow state
    every few seconds, and the mean of times sampled evenly over a run is
    linear in the share of the run spent in each state, so the ratio of two
    such means cancels it; a median jumps between the two states.
    """
    return NOMINAL_S / statistics.fmean(reference_times)
