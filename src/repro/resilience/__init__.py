"""Resilience layer: retry/backoff, circuit breaking, fault injection
and flow checkpoints.

The paper's step 8 rides on long, flaky infrastructure — an hour-scale
HLS/xocc build followed by a ~30-50 minute AFI creation loop over S3 and
``describe-fpga-images`` polling.  This package is what lets the flow
survive that weather instead of discarding completed work:

* :mod:`repro.resilience.clock` — the injectable virtual clock (no
  wall-clock sleeps anywhere, enforced by the ``wallclock-sleep`` lint
  rule);
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, exponential
  backoff with deterministic seeded jitter;
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` per
  boundary;
* :mod:`repro.resilience.faults` — seeded :class:`FaultPlan` chaos
  injection (``condor chaos``);
* :mod:`repro.resilience.boundary` — :func:`run_boundary`, the harness
  the production cloud/toolchain edges call through;
* :mod:`repro.resilience.ledger` — the one process-wide count of every
  call, retry, give-up and breaker event, which the
  ``condor_resilience_*`` series read at collect time and each flow
  run's ``resilience`` block takes the difference of;
* :mod:`repro.resilience.checkpoint` — the per-step checkpoint store
  behind ``condor build --resume``.
"""

from repro.resilience.boundary import (
    breaker_for,
    breaker_states,
    inject_faults,
    reset_breakers,
    run_boundary,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointStore,
    chain_digest,
    file_digest,
)
from repro.resilience.clock import DEFAULT_CLOCK, VirtualClock
from repro.resilience.faults import (
    ALL_BOUNDARIES,
    CLOUD_BOUNDARIES,
    DEVICE_FAULT_KINDS,
    DEVICE_PATTERN,
    FaultKind,
    FaultPlan,
    FaultSpec,
    active_plan,
)
from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy, is_transient

__all__ = [
    "ALL_BOUNDARIES",
    "CLOUD_BOUNDARIES",
    "Checkpoint",
    "CheckpointStore",
    "CircuitBreaker",
    "DEFAULT_CLOCK",
    "DEFAULT_POLICY",
    "DEVICE_FAULT_KINDS",
    "DEVICE_PATTERN",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "VirtualClock",
    "active_plan",
    "breaker_for",
    "breaker_states",
    "chain_digest",
    "file_digest",
    "inject_faults",
    "is_transient",
    "reset_breakers",
    "run_boundary",
]
