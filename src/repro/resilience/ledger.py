"""The resilience ledger: one process-wide count per boundary event.

Each event is written once, where it happens, as a ``(kind, boundary)``
count:

* ``call`` — :func:`~repro.resilience.boundary.run_boundary` entered;
* ``retry`` / ``giveup`` — :meth:`RetryPolicy.call
  <repro.resilience.retry.RetryPolicy.call>` re-ran a failed attempt /
  ran out of attempts on a transient failure;
* ``rejected`` / ``opened`` — a
  :class:`~repro.resilience.breaker.CircuitBreaker` refused a call /
  tripped open (fleet slot breakers included).

The ``condor_resilience_*`` registry counters read the ledger at
collect time, and a flow run's ``resilience`` block is the difference
of two :func:`counts` snapshots (:func:`since`).  Like the server and
fleet ledgers, it is not gated by ``REPRO_NO_OBS``.
"""

from __future__ import annotations

from collections import Counter

from repro.obs import REGISTRY
from repro.obs.metrics import ledger_source
from repro.util.sync import new_lock

__all__ = ["counts", "record", "since"]

_LEDGER: Counter[tuple[str, str]] = Counter()
#: A leaf lock: nothing else is acquired while it is held.
_LOCK = new_lock("resilience.ledger")

for _kind, _name, _help in (
        ("retry", "condor_resilience_retries_total",
         "Attempts re-run after a transient failure, by boundary"),
        ("giveup", "condor_resilience_giveups_total",
         "Retry loops that exhausted their attempts, by boundary"),
        ("rejected", "condor_resilience_breaker_rejected_total",
         "Calls rejected by an open circuit breaker, by boundary"),
        ("opened", "condor_resilience_breaker_opened_total",
         "Circuit breakers tripped open, by boundary")):
    REGISTRY.counter(_name, _help).add_source(
        ledger_source(_LEDGER, _kind, "boundary"), lock=_LOCK)

#: A run block's keys, each with the ledger kind it counts.
_RUN_BLOCK = (("calls", "call"), ("retries", "retry"),
              ("giveups", "giveup"), ("breaker_rejections", "rejected"))


def record(kind: str, boundary: str) -> None:
    """Count one ``kind`` event at ``boundary``."""
    with _LOCK:
        _LEDGER[kind, boundary] += 1


def counts() -> Counter[tuple[str, str]]:
    """A snapshot of every ``(kind, boundary)`` count."""
    with _LOCK:
        return Counter(_LEDGER)


def since(start: Counter[tuple[str, str]]) -> dict[str, dict[str, int]]:
    """The events counted since the ``start`` snapshot, as a run block:
    ``{"calls"|"retries"|"giveups"|"breaker_rejections": {boundary:
    count}}``, boundaries sorted, zero counts left out."""
    delta = counts() - start
    return {key: dict(sorted((boundary, n)
                             for (k, boundary), n in delta.items()
                             if k == kind))
            for key, kind in _RUN_BLOCK}
