"""The lock-order graph the sanitizer *observes* while driving real code
paths must stay inside the documented lock hierarchy
(docs/INTERNALS.md, "Concurrency model"): one nested acquisition,
``MetricsRegistry.reset`` -> ``Metric``.

The instrumentation here is surgical: a private
:class:`~repro.sanitizer.SanitizerState` plus instrumented locks swapped
into real objects (a plan cache, a registry and the metrics they touch),
so the test is deterministic and independent of the ``REPRO_TSAN``
environment.  A final test covers the whole suite: when it runs under
``REPRO_TSAN=1``, every edge the global realm observed must be
documented.
"""

import numpy as np
import pytest

from repro.frontend.weights import WeightStore
from repro.ir.layers import ConvLayer
from repro.sanitizer import (
    STATE,
    InstrumentedLock,
    InstrumentedRLock,
    SanitizerState,
)
from repro.util.sync import tsan_enabled

METRIC = "obs.metrics.Metric"
#: The documented lock hierarchy: (held, acquired) lock-name pairs.
HIERARCHY = {("obs.metrics.MetricsRegistry", "obs.metrics.Metric")}


def _conv_setup(hw=6):
    layer = ConvLayer(name="conv", num_output=2, kernel=(3, 3))
    store = WeightStore()
    rng = np.random.default_rng(5)
    store.set("conv", "weights",
              rng.normal(size=(2, 1, 3, 3)).astype(np.float32))
    store.set("conv", "bias", rng.normal(size=(2,)).astype(np.float32))
    return layer, store, (1, hw, hw)


def test_plan_cache_edge_observed_and_documented(monkeypatch):
    # the cache's counts are read by the registry at collect time, so
    # no metric lock is ever taken under the cache lock; the exports
    # take the cache lock only after releasing the metric's
    from repro.nn import plan as plan_mod

    state = SanitizerState()
    monkeypatch.setattr(plan_mod, "new_rlock",
                        lambda name: InstrumentedRLock(name, state))
    cache = plan_mod.PlanCache(capacity=2)
    for metric in (plan_mod.PLAN_HITS, plan_mod.PLAN_MISSES,
                   plan_mod.PLAN_ENTRIES, plan_mod.PLAN_EVICTIONS,
                   plan_mod.PLAN_INVALIDATIONS):
        monkeypatch.setattr(metric, "_lock",
                            InstrumentedLock(METRIC, state))
    layer, store, in_shape = _conv_setup()
    cache.lookup(layer, in_shape, store)   # miss
    cache.lookup(layer, in_shape, store)   # hit
    cache.lookup(layer, (1, 8, 8), store)
    cache.lookup(layer, (1, 10, 10), store)  # eviction path
    cache.invalidate(store)
    assert ("nn.plan.PlanCache", METRIC) not in state.order_edges()
    assert plan_mod.PLAN_EVICTIONS.total() >= 1
    before = state.acquire_count()
    for metric in (plan_mod.PLAN_HITS, plan_mod.PLAN_ENTRIES):
        metric.snapshot()
        metric.expose()
        metric.scalar_samples()
    assert state.acquire_count() > before
    assert "nn.plan.PlanCache" in state.lock_names()
    assert state.order_edges() == set()
    assert ("nn.plan.PlanCache", METRIC) not in HIERARCHY
    assert state.error_count() == 0


def test_registry_reset_edge_observed_and_documented():
    from repro.obs.metrics import MetricsRegistry

    state = SanitizerState()
    registry = MetricsRegistry(gated=False)
    registry._lock = InstrumentedLock("obs.metrics.MetricsRegistry",
                                      state)
    counter = registry.counter("x_total", "probe")
    counter._lock = InstrumentedLock(METRIC, state)
    counter.inc(3)
    registry.reset()  # clear_values under the registry lock
    observed = state.order_edges()
    assert observed == HIERARCHY
    assert state.error_count() == 0


def test_export_paths_do_not_nest_registry_over_metric():
    # scalars()/to_prometheus() snapshot under the registry lock and
    # then let each metric lock itself: no registry -> metric edge
    from repro.obs.metrics import MetricsRegistry

    state = SanitizerState()
    registry = MetricsRegistry(gated=False)
    registry._lock = InstrumentedLock("obs.metrics.MetricsRegistry",
                                      state)
    counter = registry.counter("y_total", "probe")
    counter._lock = InstrumentedLock(METRIC, state)
    counter.inc()
    registry.scalars()
    registry.to_prometheus()
    registry.to_dict()
    assert state.order_edges() == set()
    assert state.error_count() == 0


def test_global_realm_stays_inside_documented_hierarchy():
    """Under ``REPRO_TSAN=1`` (the CI sanitizer run) every edge the
    process-wide realm has seen so far must be documented."""
    if not tsan_enabled():
        pytest.skip("REPRO_TSAN not enabled in this run")
    unexpected = STATE.order_edges() - HIERARCHY
    assert not unexpected, (
        f"runtime observed lock-order edges the documented hierarchy"
        f" does not list: {sorted(unexpected)}")
