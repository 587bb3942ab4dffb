"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the same code runs up to 1.6x slower for stretches of
a fraction of a second to minutes, because other tenants load the same
cores and caches; 30-second runs of identical work then differ by more
than any usable regression bound. The benchmark times this loop before the
first command of a pass and after every command, and scales each command's
time to a host on which the loop takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / reference

where ``reference`` is the mean of the loop times just before and just
after the command. The loop is the benchmark's own code and never changes
with the program, so a faster or slower program moves the scaled times
exactly as it moves the measured ones; only the host's speed cancels. It
mixes interpreted integer arithmetic with ``Fraction`` arithmetic, the
kinds of work the program's solver and oracle do; of the loops tried (dict
lookups, object gathers, numpy sorts and gathers, large fractions), its
time tracked the commands' times most closely on a shared 2-CPU host.
Sampling it between commands, not only between ops, left a quarter less
spread in the scaled time of an op.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About the reference's median time on the 2-CPU Xeon host the benchmark
# was sized on (Python 3.11), so scaled times read as times on that host.
NOMINAL_S = 0.016


def _work() -> None:
    s = 0
    for i in range(100_000):
        s += i * i
    acc, table = Fraction(1, 3), {}
    for i in range(1, 2_500):
        acc += Fraction(i, i + 7)
        table[i % 97] = acc


def reference() -> float:
    """Seconds one run of the reference loop takes now. The collector is
    off while it runs, so the program's heap cannot change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(refs: list[float]) -> float:
    """Scale factor for work timed among reference times ``refs``."""
    return NOMINAL_S / statistics.fmean(refs)
