"""The retryable-boundary harness.

Every flaky edge of the flow — the S3 upload, ``create-fpga-image``,
the ``describe-fpga-images`` poll loop, HLS csynth, ``xocc`` link and
``.xo`` packaging — funnels through :func:`run_boundary`, which stacks
(outermost first):

1. a per-boundary :class:`~repro.resilience.breaker.CircuitBreaker`
   (open circuit → reject immediately),
2. the active :class:`~repro.resilience.faults.FaultPlan` hook (chaos
   faults fire here, *inside* the retry loop, so injection exercises the
   production retry path),
3. a :class:`~repro.resilience.retry.RetryPolicy` around the attempt.

:func:`inject_faults` installs a plan for a dynamic extent and swaps in
a fresh breaker realm, so chaos runs never poison the process-wide
breakers (and vice versa).
"""

from __future__ import annotations

import contextlib
import contextvars
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import CircuitOpenError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import VirtualClock
from repro.resilience.faults import FaultPlan, _activate, active_plan
from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy, is_transient
from repro.util.sync import new_lock

__all__ = [
    "BoundaryStats",
    "breaker_for",
    "breaker_states",
    "collecting_stats",
    "current_stats",
    "inject_faults",
    "reset_breakers",
    "run_boundary",
]

#: The process-wide breaker realm (boundary name -> breaker).
_BREAKERS: dict[str, CircuitBreaker] = {}
#: Guards realm membership (get-or-create, reset, the chaos swap).
_BREAKERS_LOCK = new_lock("resilience.boundary.breakers")


def breaker_for(boundary: str, *,
                clock: VirtualClock | None = None) -> CircuitBreaker:
    """The realm's breaker for a boundary (created on first use)."""
    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(boundary)
        if breaker is None:
            breaker = _BREAKERS[boundary] = \
                CircuitBreaker(boundary, clock=clock)
        return breaker


def reset_breakers() -> None:
    """Drop every breaker in the current realm (tests / fresh runs)."""
    with _BREAKERS_LOCK:
        _BREAKERS.clear()


def breaker_states() -> dict[str, dict]:
    """Snapshot of every breaker in the current realm, by boundary.

    The manifest records this so a post-mortem can tell *which* edge
    tripped and how often, not just the per-run rejection counters.
    """
    with _BREAKERS_LOCK:
        realm = sorted(_BREAKERS.items())
    return {
        name: {
            "state": b.state,
            "opened_count": b.opened_count,
            "consecutive_failures": b.consecutive_failures,
        }
        for name, b in realm
    }


@dataclass
class BoundaryStats:
    """Per-run resilience accounting (collected via contextvar)."""

    retries: Counter = field(default_factory=Counter)
    giveups: Counter = field(default_factory=Counter)
    breaker_rejections: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def to_dict(self) -> dict:
        return {
            "calls": dict(sorted(self.calls.items())),
            "retries": dict(sorted(self.retries.items())),
            "giveups": dict(sorted(self.giveups.items())),
            "breaker_rejections":
                dict(sorted(self.breaker_rejections.items())),
        }

    @property
    def any_activity(self) -> bool:
        return bool(self.retries or self.giveups
                    or self.breaker_rejections)


_stats: contextvars.ContextVar[BoundaryStats | None] = \
    contextvars.ContextVar("repro_resilience_stats", default=None)


def current_stats() -> BoundaryStats | None:
    return _stats.get()


@contextlib.contextmanager
def collecting_stats(stats: BoundaryStats | None = None) \
        -> Iterator[BoundaryStats]:
    """Collect boundary accounting for the dynamic extent."""
    collected = stats if stats is not None else BoundaryStats()
    token = _stats.set(collected)
    try:
        yield collected
    finally:
        _stats.reset(token)


@contextlib.contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm a fault plan for the dynamic extent.

    The breaker realm is swapped for a fresh one while the plan is
    active: injected failures must not leave production breakers open,
    and pre-existing breaker state must not skew a seeded chaos run.
    """
    global _BREAKERS
    with _BREAKERS_LOCK:
        saved = _BREAKERS
        _BREAKERS = {}
    try:
        with _activate(plan):
            yield plan
    finally:
        with _BREAKERS_LOCK:
            _BREAKERS = saved


def run_boundary(boundary: str, fn: Callable[[], Any], *,
                 policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 clock: VirtualClock | None = None) -> Any:
    """Run one boundary call under breaker + fault hook + retry."""
    policy = policy if policy is not None else DEFAULT_POLICY
    breaker = breaker if breaker is not None \
        else breaker_for(boundary, clock=clock)
    clock = clock if clock is not None else breaker.clock
    stats = _stats.get()
    if stats is not None:
        stats.calls[boundary] += 1

    def attempt() -> Any:
        try:
            breaker.allow()
        except CircuitOpenError:
            if stats is not None:
                stats.breaker_rejections[boundary] += 1
            raise
        plan = active_plan()
        try:
            if plan is not None:
                plan.on_attempt(boundary, clock)
            result = fn()
        except Exception as exc:
            if is_transient(exc):
                breaker.record_failure()
            raise
        breaker.record_success()
        return result

    def on_retry(attempt_no: int, exc: BaseException) -> None:
        if stats is not None:
            stats.retries[boundary] += 1

    try:
        return policy.call(attempt, boundary=boundary, clock=clock,
                           on_retry=on_retry)
    except Exception as exc:
        if stats is not None and is_transient(exc):
            stats.giveups[boundary] += 1
        raise
