"""The runtime lock sanitizer: held stacks, the observed order graph,
and the three failure modes (inversion, double-acquire, slow-hold)."""

import threading

import pytest

from repro.errors import SanitizerError
from repro.sanitizer import InstrumentedLock, SanitizerState
from repro.util.sync import ENABLE_ENV, new_lock, tsan_enabled


def _locks(state, *names):
    return [InstrumentedLock(n, state) for n in names]


def test_acquire_release_bookkeeping():
    state = SanitizerState()
    (a,) = _locks(state, "A")
    with a:
        assert state.held_names() == ["A"]
        assert a.locked()
    assert state.held_names() == []
    assert not a.locked()
    assert state.acquire_count() == 1
    assert state.lock_names() == {"A"}
    assert state.findings() == []


def test_nested_acquire_records_order_edge():
    state = SanitizerState()
    a, b = _locks(state, "A", "B")
    with a:
        with b:
            assert state.held_names() == ["A", "B"]
    assert state.order_edges() == {("A", "B")}
    assert state.findings() == []


def test_double_acquire_raises_instead_of_deadlocking():
    state = SanitizerState()
    (a,) = _locks(state, "A")
    a.acquire()
    with pytest.raises(SanitizerError, match="double-acquire"):
        a.acquire()
    kinds = [f.kind for f in state.findings()]
    assert kinds == ["double-acquire"]
    assert state.error_count() == 1
    a.release()


def test_order_inversion_detected():
    state = SanitizerState()
    a, b = _locks(state, "A", "B")
    with a:
        with b:
            pass
    with b:
        with a:  # A before B elsewhere: classic inversion
            pass
    findings = state.findings(severity="error")
    assert [f.kind for f in findings] == ["order-inversion"]
    assert findings[0].lock == "A"
    assert "'B'" in findings[0].detail


def test_transitive_inversion_detected():
    state = SanitizerState()
    a, b, c = _locks(state, "A", "B", "C")
    with a:
        with b:
            pass
    with b:
        with c:
            pass
    with c:
        with a:  # closes the A -> B -> C cycle
            pass
    assert [f.kind for f in state.findings(severity="error")] \
        == ["order-inversion"]


def test_same_name_distinct_instances_nesting_flagged():
    # two metric locks nested = same-rank nesting: a peer thread
    # nesting them the other way round deadlocks
    state = SanitizerState()
    first, second = _locks(state, "cache", "cache")
    with first:
        with second:
            pass
    assert [f.kind for f in state.findings()] == ["order-inversion"]


def test_slow_hold_warning():
    state = SanitizerState(hold_threshold=0.0001)
    (a,) = _locks(state, "A")
    with a:
        threading.Event().wait(0.005)
    findings = state.findings()
    assert [f.kind for f in findings] == ["slow-hold"]
    assert findings[0].severity == "warning"
    assert state.error_count() == 0


def test_cross_thread_inversion_detected():
    state = SanitizerState()
    a, b = _locks(state, "A", "B")

    def forward():
        with a:
            with b:
                pass

    t = threading.Thread(target=forward)
    t.start()
    t.join()
    with b:
        with a:
            pass
    assert [f.kind for f in state.findings(severity="error")] \
        == ["order-inversion"]


def test_reset_clears_graph_but_not_held_stacks():
    state = SanitizerState()
    a, b = _locks(state, "A", "B")
    with a:
        with b:
            pass
    a.acquire()
    state.reset()
    assert state.order_edges() == set()
    assert state.acquire_count() == 0
    assert state.held_names() == ["A"]  # genuinely still held
    a.release()


def test_snapshot_payload():
    state = SanitizerState()
    a, b = _locks(state, "A", "B")
    with a:
        with b:
            pass
    snap = state.snapshot()
    assert snap["acquires"] == 2
    assert snap["locks"] == ["A", "B"]
    assert snap["order_edges"] == [["A", "B"]]
    assert snap["max_hold_seconds"] >= 0
    assert snap["findings"] == []


def test_finding_render_and_dict_roundtrip():
    state = SanitizerState()
    (a,) = _locks(state, "A")
    a.acquire()
    with pytest.raises(SanitizerError):
        a.acquire()
    a.release()
    (finding,) = state.findings()
    assert "double-acquire" in finding.render()
    doc = finding.to_dict()
    assert doc["lock"] == "A" and doc["severity"] == "error"


def test_factory_env_gating(monkeypatch):
    monkeypatch.delenv(ENABLE_ENV, raising=False)
    assert not tsan_enabled()
    assert isinstance(new_lock("x"), type(threading.Lock()))
    monkeypatch.setenv(ENABLE_ENV, "1")
    assert tsan_enabled()
    lock = new_lock("x")
    assert isinstance(lock, InstrumentedLock)
    assert lock.name == "x"
