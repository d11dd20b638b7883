"""The locks on shared state must stay inside the documented lock
hierarchy (docs/INTERNALS.md, "Concurrency model"): one nested
acquisition, ``MetricsRegistry.reset`` -> ``Metric``.

Each case swaps a :class:`RecordingLock` onto real objects (the
ledgers, a registry and the metrics they touch), drives a real code
path and compares the lock-order edges it observed with the hierarchy.
"""

import threading

import numpy as np

from repro.frontend.weights import WeightStore
from repro.ir.layers import ConvLayer
from repro.obs.metrics import MetricsRegistry

REGISTRY_LOCK = "MetricsRegistry"
METRIC = "Metric"
#: The documented lock hierarchy: (held, acquired) lock-name pairs.
HIERARCHY = {(REGISTRY_LOCK, METRIC)}


class Recording:
    """What a set of :class:`RecordingLock` saw: every ``(held,
    acquired)`` name pair, and each name's acquisitions."""

    def __init__(self):
        self.edges: set[tuple[str, str]] = set()
        self.acquired: dict[str, int] = {}
        self.held: list[str] = []

    def lock(self, name: str) -> "RecordingLock":
        return RecordingLock(name, self)


class RecordingLock:
    """A real lock that reports each acquisition to a :class:`Recording`
    (one thread: the held stack is the recording's)."""

    def __init__(self, name: str, recording: Recording):
        self.name = name
        self._recording = recording
        self._lock = threading.Lock()

    def __enter__(self):
        rec = self._recording
        rec.edges.update((held, self.name) for held in rec.held)
        self._lock.acquire()
        rec.held.append(self.name)
        rec.acquired[self.name] = rec.acquired.get(self.name, 0) + 1
        return self

    def __exit__(self, *exc):
        self._recording.held.remove(self.name)
        self._lock.release()
        return False


def _conv_setup(hw=6):
    layer = ConvLayer(name="conv", num_output=2, kernel=(3, 3))
    store = WeightStore()
    rng = np.random.default_rng(5)
    store.set("conv", "weights",
              rng.normal(size=(2, 1, 3, 3)).astype(np.float32))
    store.set("conv", "bias", rng.normal(size=(2,)).astype(np.float32))
    return layer, store, (1, hw, hw)


def _export(metrics):
    for metric in metrics:
        metric.snapshot()
        metric.expose()
        metric.scalar_samples()


def test_plan_ledger_edge_observed_and_documented(monkeypatch):
    # the ledger's counts are read by the registry at collect time, so
    # no metric lock is ever taken under the ledger lock; the exports
    # take the ledger lock only after releasing the metric's
    from repro.nn import plan as plan_mod

    rec = Recording()
    ledger = "PlanLedger"
    monkeypatch.setattr(plan_mod.LEDGER, "_lock", rec.lock(ledger))
    metrics = (plan_mod.PLAN_HITS, plan_mod.PLAN_MISSES,
               plan_mod.PLAN_COMPILES, plan_mod.PLAN_COMPILE_SECONDS)
    for metric in metrics:
        monkeypatch.setattr(metric, "_lock", rec.lock(METRIC))
    layer, store, in_shape = _conv_setup()
    plan_mod.compile_plan(layer, in_shape, store)   # a miss
    plan_mod.LEDGER.record_hit(3)
    assert rec.edges == set()
    before = dict(rec.acquired)
    _export(metrics)
    assert rec.acquired[METRIC] > before[METRIC]
    assert rec.acquired[ledger] > before[ledger]
    assert rec.edges == set()


def test_resilience_ledger_is_a_leaf(monkeypatch):
    # the resilience counters read the ledger under its own lock, taken
    # after the metric's is released
    from repro.obs import REGISTRY
    from repro.resilience import ledger as ledger_mod

    rec = Recording()
    lock = rec.lock("resilience.ledger")
    monkeypatch.setattr(ledger_mod, "_LOCK", lock)
    metrics = [REGISTRY.get(name) for name in (
        "condor_resilience_retries_total",
        "condor_resilience_giveups_total",
        "condor_resilience_breaker_rejected_total",
        "condor_resilience_breaker_opened_total")]
    for metric in metrics:
        monkeypatch.setattr(metric, "_lock", rec.lock(METRIC))
        monkeypatch.setattr(metric, "_sources", [
            (fn, lock, ref) for fn, _, ref in metric._sources])
    start = ledger_mod.counts()
    ledger_mod.record("retry", "probe.boundary")
    assert ledger_mod.since(start)["retries"] == {"probe.boundary": 1}
    _export(metrics)
    assert rec.acquired["resilience.ledger"] > 2
    assert rec.edges == set()


def test_registry_reset_edge_observed_and_documented():
    rec = Recording()
    registry = MetricsRegistry(gated=False)
    registry._lock = rec.lock(REGISTRY_LOCK)
    counter = registry.counter("x_total", "probe")
    counter._lock = rec.lock(METRIC)
    counter.inc(3)
    registry.reset()  # clear_values under the registry lock
    assert rec.edges == HIERARCHY
    assert counter.value() == 0


def test_export_paths_do_not_nest_registry_over_metric():
    # scalars()/to_prometheus() snapshot under the registry lock and
    # then let each metric lock itself: no registry -> metric edge
    rec = Recording()
    registry = MetricsRegistry(gated=False)
    registry._lock = rec.lock(REGISTRY_LOCK)
    counter = registry.counter("y_total", "probe")
    counter._lock = rec.lock(METRIC)
    counter.inc()
    registry.scalars()
    registry.to_prometheus()
    registry.to_dict()
    assert rec.acquired[REGISTRY_LOCK] >= 3
    assert rec.edges == set()
