"""A fixed reference kernel that gauges the machine's momentary speed.

On a shared machine the same code runs up to half again slower for
seconds to minutes at a time, whatever the program does.  The benchmark
times this kernel between ops and rescales each op's time to what it would
have been had the kernel taken NOMINAL_S, so runs made in different
machine states compare.  The kernel mixes the kinds of work the workloads
do: interpreted complex arithmetic, elementwise numpy on a 2001-point grid
and float formatting.  It is part of the benchmark and must not change
between the commits being compared.
"""

from __future__ import annotations

import time

#: a round figure near the kernel's time on an idle 2-core Xeon (Sapphire
#: Rapids) box; only its ratio to the measured kernel time matters
NOMINAL_S = 0.004


def kernel() -> int:
    import numpy as np

    z, acc = 0.3 + 0.1j, 0j
    for _ in range(6000):
        z = z * (0.999 + 0.001j) + 0.001
        acc += abs(z) ** (1.0 / 3.0)
    grid = np.linspace(-10.0, 10.0, 2001)
    for _ in range(60):
        power = np.abs(-1.0 - 2.0 / (grid * grid + 1.0 + 1j * grid)) ** 2
    rows = [f"{x:.12g},{y:.12e}" for x, y in zip(grid[:1200].tolist(),
                                                  power[:1200].tolist())]
    return len(rows) + int(acc.real > 0)


def scale() -> float:
    """NOMINAL_S over the kernel's time now: multiply op times by this."""
    t0 = time.perf_counter()
    kernel()
    return NOMINAL_S / (time.perf_counter() - t0)
