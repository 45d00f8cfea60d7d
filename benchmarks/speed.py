"""Machine speed, measured with a fixed kernel that never calls the library.

On the shared 2-core virtual machine the benchmark was written on, the same
batch ran anywhere from 1.0 s to 1.7 s within a few minutes, with CPU time
tracking wall time: the host, not the program, changed speed, and neighbouring
runs slowed together. Every end-to-end time is therefore measured next to a
run of ``kernel`` and reported at the speed where the kernel takes
``REFERENCE_S``:

    reported = measured * REFERENCE_S / kernel_seconds_next_to_it

A change to gexforms cannot move the kernel, which imports nothing from it.
Over 30 s windows of one process this cut the quartile spread of the median
batch time from 0.14-0.27 to 0.04-0.05. The unscaled values are kept in each
run's record.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.1  # about the kernel's time on that machine when it ran fast

_ROWS = tuple((0x9E3779B97F4A7C15 * (i + 1)) % (1 << 48) for i in range(48))


def kernel() -> int:
    """GF(2) row selection and small allocations, like the library's loops."""
    acc = 0
    for _ in range(100):
        for v in range(1, 600):
            w, x = v, 0
            while w:
                i = (w & -w).bit_length() - 1
                w &= w - 1
                x ^= _ROWS[i]
            acc ^= (x & v).bit_count() & 1
        acc ^= len([(i, i ^ acc) for i in range(3000)])
    return acc


def kernel_seconds() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def scaled(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s
