"""Simulated-time periodic triggers (GC cadence, checkpoint cadence).

The simulator has no event loop; components poll the trigger with the
current simulated time and run their periodic work inline when it fires.
That matches how the paper describes HOOP's GC: "executes periodically
(in every ten milliseconds by default)" — a cadence, not an interrupt.
"""

from __future__ import annotations


class PeriodicTrigger:
    """Fires once every ``period_ns`` of simulated time."""

    def __init__(self, period_ns: float, *, start_ns: float = 0.0) -> None:
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self.period_ns = period_ns
        self._next_fire_ns = start_ns + period_ns
        self.fire_count = 0
        # Periods that elapsed unserviced before a poll caught up: when
        # one fire() consumes N periods, N-1 of them were skipped (the
        # caller runs its periodic work once regardless).
        self.missed_periods = 0

    def due(self, now_ns: float) -> bool:
        """True when at least one period has elapsed since the last fire."""
        return now_ns >= self._next_fire_ns

    def fire(self, now_ns: float) -> int:
        """Consume all elapsed periods; returns how many were due.

        Callers typically run their periodic work once regardless of how
        many periods elapsed (GC catches up in a single pass), but the
        count is reported so statistics can show skipped periods.
        """
        if now_ns < self._next_fire_ns:
            return 0
        missed = int((now_ns - self._next_fire_ns) // self.period_ns) + 1
        self._next_fire_ns += missed * self.period_ns
        self.fire_count += missed
        self.missed_periods += missed - 1
        return missed

    @property
    def next_fire_ns(self) -> float:
        """The simulated instant of the next due period."""
        return self._next_fire_ns


# -- snapshot declarations ----------------------------------------------------
PeriodicTrigger.__snapshot_state__ = "__atoms__"
