"""The host's current speed, measured by a fixed piece of pure-Python work.

The reference host runs at one speed for minutes at a time and then at
another, up to 1.5 times slower, because of load outside the guest: the
same call can take 24 ms in one minute and 37 ms in the next, while its
ratio to ``calibrate()`` moves by a few percent.  So the benchmark reports
times at the reference speed: a measured time multiplied by
``REFERENCE_S / calibrate()``, with ``calibrate()`` measured around the
timed call.  The work is Schensted row bumping written out in the
benchmark (list indexing, ``bisect`` and tuple building, as in rsinv), so
a change to rsinv cannot change it.

The time to start a process does not follow ``calibrate()``: on the
reference host an empty interpreter takes 75 to 126 ms from one minute to
the next while ``calibrate()`` stays the same.  So ``setup_s`` is scaled by
``REFERENCE_START_S`` over the time of an empty interpreter started right
after each set-up.
"""
from __future__ import annotations

from bisect import bisect_right
from time import perf_counter

#: calibrate() on the reference host (2 vCPU Intel Xeon KVM guest,
#: Python 3.11.7) in its fast periods
REFERENCE_S = 0.00064

#: ``python3 -c pass``, start to exit, on the reference host in its fast
#: periods
REFERENCE_START_S = 0.075

_WORDS = [(i * 7919) % 1009 for i in range(400)]


def _bump_all() -> int:
    rows: list[list[int]] = []
    for x in _WORDS:
        for row in rows:
            j = bisect_right(row, x)
            if j == len(row):
                row.append(x)
                break
            row[j], x = x, row[j]
        else:
            rows.append([x])
    return len(tuple(tuple(row) for row in rows))


def calibrate(tries: int = 2) -> float:
    """Seconds the fixed work takes now, the fastest of ``tries``."""
    best = float("inf")
    for _ in range(tries):
        start = perf_counter()
        _bump_all()
        best = min(best, perf_counter() - start)
    return best


def at_reference(seconds: float, speed: float) -> float:
    """``seconds`` measured while calibrate() read ``speed``, scaled to the
    reference speed."""
    return seconds * REFERENCE_S / speed
