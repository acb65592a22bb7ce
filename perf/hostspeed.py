"""A reference loop that says how fast the host is running right now.

The box this benchmark was sized on is shared: for tens of seconds at a
time everything on it runs 1.3x-1.6x slower, then fast again, and short
stalls come on top.  No median taken inside a 20 s run removes a slow
phase that outlasts the run: ten uncorrected runs of each workload spread
5-37 % in ``wall_ops_per_s`` (interquartile range over median) depending
on the hour, more than any bound may be.

So every round interleaves samples of a fixed, pure-Python piece of work
with its units — before each unit and after the last — and expresses the
round's host time in *reference seconds*: wall seconds multiplied by the
round's ``speed_factor``, the nominal duration of a sample over the mean
duration seen in that round.  A host running the loop at nominal speed has
factor 1; a round caught in a slow phase has a factor below 1 and its
times shrink by it.  Measured on the same ten seeds, that brought the
spreads to 3-8 %.  (The mean, not a low quantile of the samples: the
workloads lose time to the short stalls in proportion, so the yardstick
has to as well.)  The raw wall times and the factors are always printed
and recorded beside the corrected ones.

The loop touches nothing under ``src/``: a change to the simulator cannot
speed the yardstick up.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Sequence

ITERATIONS = 50_000

# Mean seconds per sample on the seed box in a quiet phase.  Only a scale:
# it makes a reference second equal a wall second there.
NOMINAL_S = 0.075

# Samples taken per round, spread over its unit boundaries: enough that a
# single stalled sample moves the round's mean by a sixth at most.
SAMPLES_PER_ROUND = 6


def reference_sample() -> float:
    """Run the fixed work once; returns the wall seconds it took.

    The cyclic collector is off meanwhile: the loop allocates, and a
    collection it triggered would cost in proportion to whatever heap the
    workload has left alive, which is not the host's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        table: dict = {}
        total = 0.0
        for i in range(ITERATIONS):
            key = (i * 7919) % 10007
            heapq.heappush(heap, (key, i))
            slot = key & 1023
            table[slot] = table.get(slot, 0) + i
            total += key * 0.5
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def samples_per_boundary(units: int) -> int:
    """How many samples to take at each of a round's ``units + 1`` boundaries."""
    return -(-SAMPLES_PER_ROUND // (units + 1))


def speed_factor(samples: Sequence[float]) -> float:
    """Nominal over observed mean sample time: below 1 on a slow host."""
    return NOMINAL_S * len(samples) / sum(samples)
