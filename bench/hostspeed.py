"""Correction of measured times for the current speed of a shared host.

On a shared 2-core host the same job list can take 1.3 s in one minute and
3.0 s in the next, in slow spells of 10-60 s.  A short fixed kernel timed
next to each job slows down with it: over such spells the ratio of job time
to kernel time stayed within about 6 % (quartile spread) while the raw job
time spread 30 %.  The benchmark therefore reports each time multiplied by
``NOMINAL_S / kernel``, the kernel time taken as the median over
neighbouring jobs; the raw times are printed alongside.  On an idle host the
factor is close to 1.  The kernel uses no chargequench code, so a change to
the program never moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 4.4e-4  # kernel() on an idle host of the 2-core kind the benchmark was tuned on
WINDOW = 5  # kernels on each side of a job that set its correction

_X = np.linspace(-3.0, 3.0, 24)


def kernel() -> float:
    """Seconds taken by a fixed mix of small numpy ufuncs and Python-level
    work, like the program's integrand nodes and interval algebra."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60):
        y = np.minimum(np.abs(np.sin(_X + i)) * 2.0, 1.5)
        acc += float(np.dot(y, np.log1p(y)))
        intervals = sorted((a, a + 0.5) for a in (0.3 * i, 0.1 * i, 0.7, 0.2))
        acc += sum(b - a for a, b in intervals if b > a)
    return time.perf_counter() - t0


def corrected(times, kernels):
    """``times[i] * NOMINAL_S / median(kernels[i - WINDOW : i + WINDOW + 1])``,
    for times measured in order with ``kernels[i]`` taken next to ``times[i]``."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(kernels[max(0, i - WINDOW): i + WINDOW + 1])
        out.append(t * NOMINAL_S / local)
    return out
