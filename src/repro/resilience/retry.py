"""Retry with exponential backoff and deterministic, seeded jitter.

A :class:`RetryPolicy` is a *value*: given the same seed and boundary
name it always produces the same backoff schedule, so a chaos run is
bit-replayable.  Sleeping happens on an injectable
:class:`~repro.resilience.clock.VirtualClock` — never the wall clock.

Only :class:`~repro.errors.TransientError` (or exceptions flagged with a
truthy ``transient`` attribute) are retried: the simulated toolchain and
cloud are deterministic, so a typed design error (``LinkError`` from a
resource check, ``HLSError`` from a bad pragma) will fail identically on
every attempt and must surface immediately.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.errors import TransientError
from repro.resilience import ledger
from repro.resilience.clock import DEFAULT_CLOCK, VirtualClock
from repro.util.logging import get_logger

__all__ = ["RetryPolicy", "is_transient"]

_log = get_logger("resilience.retry")


def is_transient(exc: BaseException) -> bool:
    """The default retryability classifier."""
    return isinstance(exc, TransientError) or \
        bool(getattr(exc, "transient", False))


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base_delay_s * multiplier**n``, capped at
    ``max_delay_s``, with ±``jitter`` relative spread drawn from a RNG
    seeded by ``(seed, boundary)`` — deterministic, but decorrelated
    across boundaries."""

    max_attempts: int = 3
    base_delay_s: float = 1.0
    multiplier: float = 2.0
    max_delay_s: float = 60.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def _rng(self, boundary: str) -> random.Random:
        return random.Random(
            self.seed * 0x1_0000_0000 + zlib.crc32(boundary.encode()))

    def delays(self, boundary: str = "") -> Iterator[float]:
        """The (infinite) backoff schedule for one boundary."""
        rng = self._rng(boundary)
        attempt = 0
        while True:
            base = min(self.max_delay_s,
                       self.base_delay_s * self.multiplier ** attempt)
            spread = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield base * spread
            attempt += 1

    def call(self, fn: Callable[[], Any], *, boundary: str = "",
             clock: VirtualClock | None = None) -> Any:
        """Run ``fn`` under this policy.

        Transient failures are retried up to ``max_attempts`` total
        attempts, sleeping the backoff schedule on ``clock`` between
        attempts.  The final failure is re-raised *unchanged*, so callers
        keep the typed ``repro.errors`` hierarchy.  Each retry and
        give-up is counted in the resilience ledger.
        """
        clock = clock if clock is not None else DEFAULT_CLOCK
        delays = self.delays(boundary)
        attempt = 1
        while True:
            try:
                return fn()
            except Exception as exc:
                if not is_transient(exc) or attempt >= self.max_attempts:
                    if is_transient(exc):
                        ledger.record("giveup", boundary or "-")
                        _log.warning(
                            "boundary %s: giving up after %d attempt(s):"
                            " %s", boundary or "-", attempt, exc)
                    raise
                delay = next(delays)
                ledger.record("retry", boundary or "-")
                _log.info(
                    "boundary %s: attempt %d/%d failed (%s); retrying"
                    " after %.2fs (virtual)", boundary or "-", attempt,
                    self.max_attempts, exc, delay)
                clock.sleep(delay)
                attempt += 1


#: The stock policy applied at toolchain/cloud boundaries when none is
#: configured explicitly.
DEFAULT_POLICY = RetryPolicy()
