"""The resilience ledger: each boundary event is counted once, and the
``condor_resilience_*`` series and a run's block both read that count."""

import sys
import threading

import pytest

from repro.errors import CircuitOpenError, TransientError
from repro.obs import REGISTRY
from repro.resilience import CircuitBreaker, RetryPolicy, VirtualClock, ledger
from repro.resilience.boundary import run_boundary

SERIES = {
    "retry": "condor_resilience_retries_total",
    "giveup": "condor_resilience_giveups_total",
    "rejected": "condor_resilience_breaker_rejected_total",
    "opened": "condor_resilience_breaker_opened_total",
}


def _values(boundary):
    return {kind: REGISTRY.get(name).value(boundary=boundary)
            for kind, name in SERIES.items()}


def test_every_event_counted_once_where_it_happens():
    clock = VirtualClock()
    breaker = CircuitBreaker("test.ledger", failure_threshold=3,
                             recovery_s=60.0, clock=clock)
    before, start = _values("test.ledger"), ledger.counts()

    def flaky():
        raise TransientError("weather")

    # three failed attempts: two retries, a give-up, and the third
    # failure trips the breaker; the next call is rejected outright
    with pytest.raises(TransientError):
        run_boundary("test.ledger", flaky, breaker=breaker, clock=clock)
    with pytest.raises(CircuitOpenError):
        run_boundary("test.ledger", flaky, breaker=breaker, clock=clock)
    block = ledger.since(start)
    assert block == {"calls": {"test.ledger": 2},
                     "retries": {"test.ledger": 2},
                     "giveups": {"test.ledger": 1},
                     "breaker_rejections": {"test.ledger": 1}}
    moved = {kind: value - before[kind]
             for kind, value in _values("test.ledger").items()}
    assert moved == {"retry": 2, "giveup": 1, "rejected": 1, "opened": 1}


def test_series_report_under_the_kill_switch(monkeypatch):
    monkeypatch.setenv("REPRO_NO_OBS", "1")
    before = _values("test.kill-switch")["retry"]
    calls = []

    def once():
        if not calls:
            calls.append(1)
            raise TransientError("once")
        return "ok"

    assert RetryPolicy().call(once, boundary="test.kill-switch",
                              clock=VirtualClock()) == "ok"
    assert _values("test.kill-switch")["retry"] == before + 1


def test_concurrent_records_lose_nothing():
    threads, per_thread = 8, 500
    before = ledger.counts()["retry", "test.stress"]
    barrier = threading.Barrier(threads)

    def record():
        barrier.wait(timeout=10)
        for _ in range(per_thread):
            ledger.record("retry", "test.stress")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=record) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert ledger.counts()["retry", "test.stress"] - before == \
        threads * per_thread
    assert _values("test.stress")["retry"] == \
        ledger.counts()["retry", "test.stress"]
