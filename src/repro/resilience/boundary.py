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
breakers (and vice versa).  Each call, retry, give-up and breaker
rejection is counted once, in :mod:`repro.resilience.ledger`.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator
from typing import Any

from repro.resilience import ledger
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import VirtualClock
from repro.resilience.faults import FaultPlan, _activate, active_plan
from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy, is_transient
from repro.util.sync import new_lock

__all__ = [
    "breaker_for",
    "breaker_states",
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
    ledger.record("call", boundary)

    def attempt() -> Any:
        breaker.allow()
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

    return policy.call(attempt, boundary=boundary, clock=clock)
