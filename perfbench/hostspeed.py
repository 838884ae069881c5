"""Host-speed calibration.

The machines this benchmark runs on are shared: the speed of a fixed piece of
pure-Python work drifts by up to a third over minutes (10-s medians of 25-34 ms
for the same loop, one 2-core Xeon VM, Python 3.11).  Timing a fixed
calibration slice between items and scaling every reported time by
`REF_SLICE_S / median slice time` removes most of that drift: over 90 s the
ratio of a dim-3 corpus case to a `python_slice` spread 3% while each alone
spread 21%.  Each item is scaled by the slices taken around it, which also
follows drift within a run.  Raw times are kept in the run's record.

The drift is not the same for all code.  For `loja_numeric`, whose time goes
to numpy calls on small arrays, dividing by `python_slice` made things worse
(6-s window spread 14% against 7% raw) and `numpy_slice`, the same kind of
work, helped (5%); so each workload names the slice that resembles it.
"""
from __future__ import annotations

from statistics import median
from time import perf_counter

REF_SLICE_S = 0.005  # slice time of the reference host; reported times are scaled to it
EVERY_S = 0.2  # loop time between slices
WINDOW = 4  # an item is scaled by the median of the slices within this many of it


def python_slice() -> float:
    """Wall time of a fixed slice of pure-Python integer work."""
    t = perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return perf_counter() - t


def numpy_slice() -> float:
    """Wall time of a fixed slice of numpy work on small complex arrays."""
    import numpy as np

    z = (np.arange(132.0).reshape(66, 2) % 7 - 3) + 1j
    e = np.array([[3.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
    t = perf_counter()
    for _ in range(190):
        np.abs(np.prod(z[:, None, :] ** e[None, :, :], axis=2)).max(axis=1)
    return perf_counter() - t


def scale(slices: list[float], at: int | None = None) -> float:
    """Factor taking a time measured next to slice `at` (or over all of
    `slices`) to the reference host."""
    if at is not None:
        slices = slices[max(0, at - WINDOW):at + WINDOW + 1]
    return REF_SLICE_S / median(slices)
