"""Circuit breaker: stop hammering a boundary that keeps failing.

Classic three-state machine (closed → open → half-open) over the
injectable virtual clock.  The breaker only counts *transient* failures
— deterministic design errors (a kernel that genuinely does not fit) are
not weather and must not poison the boundary for later, unrelated calls.
"""

from __future__ import annotations

from repro.errors import CircuitOpenError
from repro.resilience import ledger
from repro.resilience.clock import DEFAULT_CLOCK, VirtualClock
from repro.util.logging import get_logger

__all__ = ["CircuitBreaker"]

_log = get_logger("resilience.breaker")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Breaker for one named boundary.

    After ``failure_threshold`` consecutive failures the circuit opens
    and :meth:`allow` raises :class:`~repro.errors.CircuitOpenError`
    until ``recovery_s`` has elapsed on ``clock``; the next call is then
    admitted as a half-open probe — success recloses the circuit, failure
    reopens it for another recovery window.
    """

    def __init__(self, boundary: str, *, failure_threshold: int = 5,
                 recovery_s: float = 60.0,
                 clock: VirtualClock | None = None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.boundary = boundary
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self.clock = clock if clock is not None else DEFAULT_CLOCK
        self._failures = 0
        self._state = CLOSED
        self._opened_at = 0.0
        self._opened_count = 0

    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed recovery window."""
        if self._state == OPEN and \
                self.clock.now - self._opened_at >= self.recovery_s:
            return HALF_OPEN
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    @property
    def opened_count(self) -> int:
        """Times this breaker has tripped closed/half-open -> open."""
        return self._opened_count

    def allow(self) -> None:
        """Admit or reject the next call (raises when open)."""
        state = self.state
        if state == OPEN:
            ledger.record("rejected", self.boundary)
            remaining = self.recovery_s - (self.clock.now - self._opened_at)
            raise CircuitOpenError(
                self.boundary,
                f"{self._failures} consecutive failures; retry in"
                f" {max(remaining, 0.0):.1f}s (virtual)")
        if state == HALF_OPEN:
            # admit exactly one probe: materialize the half-open state so
            # a probe failure reopens with a fresh recovery window
            self._state = HALF_OPEN

    def record_success(self) -> None:
        if self._state != CLOSED:
            _log.info("breaker %s: probe succeeded, closing",
                      self.boundary)
        self._failures = 0
        self._state = CLOSED

    def record_failure(self) -> None:
        self._failures += 1
        if self._state == HALF_OPEN or \
                self._failures >= self.failure_threshold:
            if self._state != OPEN:
                self._opened_count += 1
                ledger.record("opened", self.boundary)
                _log.warning(
                    "breaker %s: open after %d consecutive failure(s)",
                    self.boundary, self._failures)
            self._state = OPEN
            self._opened_at = self.clock.now

    def reset(self) -> None:
        self._failures = 0
        self._state = CLOSED
        self._opened_at = 0.0
