"""The injectable clock every resilience primitive runs on.

Retry backoff, circuit-breaker recovery windows and injected *slow*
faults all need a notion of elapsed time — but a reproduction that
``time.sleep``-s is both slow and nondeterministic (the ``wallclock-sleep``
lint rule bans it from ``src/repro`` outright).  Instead, everything takes
a :class:`VirtualClock`: ``sleep`` *advances* the clock and records the
interval, so a chaos run that "waits" through three exponential backoffs
finishes in microseconds of real time while the simulated timeline stays
exact and replayable.
"""

from __future__ import annotations

from collections import deque

__all__ = ["VirtualClock", "DEFAULT_CLOCK", "SLEEP_WINDOW"]

#: Recent sleep intervals a clock keeps for diagnostics.  Serving sleeps
#: once per arrival on a process-wide clock, so the history is a bounded
#: window; the running total and count stay exact.
SLEEP_WINDOW = 256


class VirtualClock:
    """Deterministic simulated time: ``sleep`` advances ``now``."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        #: The most recent :data:`SLEEP_WINDOW` intervals slept, oldest
        #: first (diagnostics / tests).
        self.sleeps: deque[float] = deque(maxlen=SLEEP_WINDOW)
        self._total_slept = 0.0
        self._sleep_count = 0

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance simulated time (no real sleeping happens)."""
        if seconds < 0:
            raise ValueError(f"cannot sleep {seconds!r} seconds")
        self._now += seconds
        self.sleeps.append(seconds)
        self._total_slept += seconds
        self._sleep_count += 1

    @property
    def total_slept(self) -> float:
        """Every interval ever slept, summed in order."""
        return self._total_slept

    @property
    def sleep_count(self) -> int:
        """How many times ``sleep`` was called."""
        return self._sleep_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VirtualClock(now={self._now:.3f},"
                f" sleeps={self._sleep_count})")


#: The process-wide default timeline.  Boundaries that are not handed an
#: explicit clock share this one, so backoff waits and breaker recovery
#: windows interact on a single consistent timeline.
DEFAULT_CLOCK = VirtualClock()
