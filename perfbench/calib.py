"""Calibration loop that puts solve times on one fixed machine speed.

A shared host runs this benchmark at two or more speeds that last from
seconds to minutes (on the 2-vCPU VM of the baseline the same pure-Python
work takes about 1.4 times longer in its slow state), so wall-clock times of
whole runs differ by that factor however long a run is.  The benchmark times
this fixed pure-Python loop (fractions, tuples, a dict, a sort: the kinds of
work the solver does) right before and right after every timed call, and
reports ``wall seconds * REFERENCE_S / loop seconds``: the call's time at the
machine speed where one loop takes ``REFERENCE_S``.  The loop does not touch
the solver, so a change to the solver moves these times as it moves wall
time, while a change in the machine's speed moves the loop as well and
cancels out.
"""

import gc
import time
from fractions import Fraction

# Seconds one loop takes on the baseline VM in its fast state; a fixed
# constant, so that scaled seconds read as wall seconds there.
REFERENCE_S = 0.0005


def loop():
    acc = Fraction(0)
    counts = {}
    values = []
    for i in range(200):
        key = (i % 13, i % 7)
        counts[key] = counts.get(key, 0) + i
        acc += Fraction(i % 11, 1 + i % 5)
        values.append((i * 7919) % 101)
    values.sort()
    return acc, len(counts), values[0]


def measure():
    """Seconds one run of the loop takes now.

    The loop runs once untimed first, so that the caches the timed call
    before it filled do not count, and with the garbage collector off, so
    that collecting the solver's garbage does not count either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        loop()
        start = time.perf_counter()
        loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(wall_s, loop_before_s, loop_after_s):
    """``wall_s`` at the reference speed, from the loops around the call."""
    return wall_s * REFERENCE_S * 2 / (loop_before_s + loop_after_s)
