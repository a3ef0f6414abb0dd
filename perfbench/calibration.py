"""Machine-speed calibration: a fixed kernel timed next to every measured op.

A shared 2-vCPU cloud host (Intel Xeon) switches its virtual CPUs between
speeds about 1.7x apart, and a state lasts from seconds to minutes.  Process
CPU time moves with wall time, so it is the CPU that slows, not the process
waiting for it; medians inside one run cannot remove a state that covers the
whole run.  The kernel below is a fixed piece of interpreter and
small-array numpy work, the mix the program's hot paths are made of, and it
never calls the program.  Timing it right before and right after an op
tells the speed the machine ran at during the op, and ``scale`` turns the
op's time into the time it would have taken on a machine where the kernel
takes ``REFERENCE_S``.  A change to the program moves the op and not the
kernel, so it moves the scaled time by the same share as the raw time.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the kernel takes on the reference machine: about its time on a
# 2-vCPU Intel Xeon cloud host in its slower, more common state, so that
# scaled figures read close to the raw figures there.
REFERENCE_S = 0.002

_LOOPS = 7_000
_ARRAY_OPS = 140
_MATRIX = np.linspace(0.0, 1.0, 800).reshape(200, 4)


def _kernel() -> float:
    acc = 0
    for i in range(_LOOPS):
        acc += i * i % 7
    for _ in range(_ARRAY_OPS):
        acc += float((_MATRIX.T @ _MATRIX).sum()) + float(np.exp(_MATRIX[:, 0]).sum())
    return acc


def kernel_seconds(repeats: int = 3) -> float:
    """Fastest of a few kernel repetitions: an interrupt lengthens one, not all."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - started)
    return best


def scale(before: float, after: float) -> float:
    """Factor from an op's raw time to reference-machine time, given the kernel around it."""
    return REFERENCE_S / (0.5 * (before + after))
