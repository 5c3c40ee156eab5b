"""Machine-speed calibration.

On a shared machine the processor's speed drifts (by 10-25% over
minutes on the 2-CPU machine the baseline was recorded on); CPU time
drifts with wall time, so the drift is speed, not waiting.  A fixed pure-Python kernel
(letter scans against set adjacency, like the library's inner loops) is
read before each request (at most every 50 ms) and after each pass, and
every request's latency is scaled to the speed at which the kernel takes
REFERENCE_S, using the mean of the readings just before and just after
that request:

    reported latency = measured latency * REFERENCE_S / kernel time

The kernel is part of the benchmark, not of pcgroups, so a change to the
library cannot move it.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Median kernel time on the machine the baseline was recorded on.
REFERENCE_S = 0.0027

_ADJ = tuple(frozenset({(i + 1) % 9, (i + 3) % 9, (i + 6) % 9}) for i in range(9))
_WORD = tuple(((i * 7) % 9) * (1 if i % 3 else -1) for i in range(48))


def kernel():
    """About 2 ms of interpreter work; returns its duration.  The garbage
    collector is off meanwhile: a collection would scan the caller's heap,
    and the kernel should time the processor, not the heap's size."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(20):
            found = []
            for i, x in enumerate(_WORD):
                nbrs = _ADJ[abs(x)]
                for y in _WORD[i + 1:i + 16]:
                    if abs(y) in nbrs:
                        found.append((abs(x), y < 0))
            found.sort()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe():
    """Median of three kernel runs: one reading of the machine's speed."""
    return sorted(kernel() for _ in range(3))[1]
