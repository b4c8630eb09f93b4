"""Machine-speed reference for the gated timings.

On a shared 2-vCPU virtual machine the same pass over the same inputs took
3.7 s in one process and 5.8 s in another a minute later, and a 0.4 s call
drifted between 0.31 s and 0.59 s within seconds: the host's other tenants
change how fast this CPU runs.  So every gated time is also expressed in
*reference seconds*: each solver call's time is scaled by the median time
of a fixed pure-Python loop, timed three times right before and three
times right after the call, relative to ``REF_LOOP_S``.  On a
machine where the loop takes exactly ``REF_LOOP_S``, reference seconds are
seconds.  The loop uses no slabel code, so a change to slabel cannot move it.
"""

from __future__ import annotations

import statistics
import time

# Nominal duration of one calibration loop; it defines the reference second
# (the loop's median on the 2-vCPU Xeon VM the benchmark was written on).
REF_LOOP_S = 0.0045
_ITEMS = tuple(range(2000))
_ROUNDS = 40


def sample() -> list[float]:
    """The calibration loop's time, three times over."""
    return [_one_loop() for _ in range(3)]


def to_reference(seconds: float, before: list[float], after: list[float]) -> float:
    """An interval in reference seconds, from the loops timed on each side of it."""
    return seconds * REF_LOOP_S / statistics.median(before + after)


def _one_loop() -> float:
    """Time one fixed loop of integer arithmetic, comparisons, indexing and
    dict stores, the operations slabel's pure-Python kernels are made of."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for r in range(_ROUNDS):
        pivot = r * 7 % 2000
        for i in _ITEMS:
            acc += i if i < pivot else pivot
            if i & 7 == 0:
                table[i] = acc
    return time.perf_counter() - start
