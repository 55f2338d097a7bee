"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The host this benchmark was defined on changes speed by up to 2x for
minutes at a time, with CPU time tracking wall time.  Raw times of the
same pass then differ more between runs than any useful bound.  So each
pass times this kernel around its work, and every time it reports is
rescaled to the speed at which the kernel takes `REFERENCE_S`.

The kernel does what reslat does most: bit-vector loops through a
generator, indexing into tuple tables, and hashing tuples into a dict.
It never changes with the program, so a faster program shows as a
smaller scaled time.  Changing the kernel or `REFERENCE_S` changes
every time the benchmark reports.
"""

from __future__ import annotations

import statistics
import time

# The kernel's time on the defining host (2 vCPUs at 2.1 GHz, Python
# 3.11) in its fast state, so that scaled times read as seconds on that
# host when it runs fast.
REFERENCE_S = 0.0026
REPEATS = 3

_N = 9
_TABLE = tuple(tuple((x * y + x + y) % _N for y in range(_N)) for x in range(_N))
_ORDER = tuple(tuple(int(x & y == x) for y in range(_N)) for x in range(_N))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kernel() -> int:
    closed = {}
    for m in range(1, 1 << _N):
        ok = True
        for x in _bits(m):
            row = _TABLE[x]
            for y in _bits(m):
                if not m >> row[y] & 1:
                    ok = False
                    break
            if not ok:
                break
        up = 0
        for x in _bits(m):
            above = _ORDER[x]
            for y in range(_N):
                if above[y]:
                    up |= 1 << y
        closed[(tuple(_bits(m)), ok, up)] = up == m
    return sum(closed.values())


def probe() -> float:
    """Median time of a few runs of the kernel, in seconds."""
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
