"""Host-speed calibration for the benchmark's timed metrics.

The benchmark runs on shared hosts whose speed for single-threaded Python
drifts by a quarter or more within minutes (other tenants on the sibling
hardware thread, frequency changes), and process CPU time drifts with it.
So the runner times a fixed pure-Python kernel, independent of
``ripsdecomp``, right after every report, and scales the report's wall time
by ``REFERENCE_S / kernel time``: the time the report would have taken on a
host that runs the kernel in ``REFERENCE_S``.  A slower program still reads
slower; a slower host does not.

The kernel mixes the operations the program spends its time on: exact
``Fraction`` arithmetic, tuples and frozensets hashed into dicts and sets,
and sorting short lists.  It runs with the garbage collector off, so the
size of the program's heap does not leak into the host's speed.
"""

import gc
import statistics
import time
from fractions import Fraction

#: Median kernel time, in seconds, on the reference host (a shared 2-vCPU
#: Linux microVM under its usual load, Python 3.11), measured right after
#: reports as the runner does.  Scaled times read about like wall times there.
REFERENCE_S = 0.010

#: Kernel runs per calibration; their median is the host's current speed.
REPEATS = 3

_FRACTIONS = [Fraction(i, 7) for i in range(1, 60)]


def kernel():
    acc = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS[::6]:
            if a + b > acc:
                acc = (a - b) / 3 + acc / 2
    seen = {}
    for i in range(4000):
        key = (i % 37, i % 11, i % 5)
        seen[key] = seen.get(key, 0) + 1
    pairs = set()
    for i in range(3000):
        pairs.add(frozenset((i % 23, i % 17)))
    rows = [[(i * j) % 13 for j in range(30)] for i in range(60)]
    for row in rows:
        row.sort()
    return acc, len(seen), len(pairs)


def kernel_seconds():
    """Median wall time of ``REPEATS`` kernel runs, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scaled(wall_s, kernel_s):
    """Wall time on the reference host, given the kernel time beside it."""
    return wall_s * REFERENCE_S / kernel_s
