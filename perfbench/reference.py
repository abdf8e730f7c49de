"""The reference kernel: a yardstick for the host's speed at the moment.

On a shared virtual machine the same pure-Python code runs up to 1.7x
slower or faster from one moment to the next, on scales from a fraction of
a second to minutes.  The benchmark times this fixed loop next to every
operation it measures and reports each time as ``time / kernel time x
REFERENCE_S``: seconds at the speed where the kernel takes ``REFERENCE_S``.
The loop slows with the host about as much as the program does (log-log
slope 0.89 against ``stats_pooled`` ops on the host where the benchmark was
written), so the ratio stays put while the raw times jump.

The kernel and the constant must never change: every normalised figure is
measured against them.
"""

from __future__ import annotations

import time

#: The kernel's time on a 2-vCPU Xeon VM at 2.0 GHz under Python 3.11, in
#: that host's fast state.
REFERENCE_S = 0.006


def reference_kernel() -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(40_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return time.perf_counter() - t0
