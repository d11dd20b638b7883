"""Static/runtime cross-validation: the lock-order graph the sanitizer
*observes* while driving real code paths must be a subgraph of the one
``condor audit`` derives from the source.

The instrumentation here is surgical: a private
:class:`~repro.sanitizer.SanitizerState` plus instrumented locks swapped
into real objects (a plan cache, a registry, a sampler and the metrics
they touch), so the test is deterministic and independent of the
``REPRO_TSAN`` environment.  A final test covers the other direction:
when the whole suite runs under ``REPRO_TSAN=1``, everything the global
realm observed must also be statically derivable.
"""

import numpy as np
import pytest

from repro.analysis.conc import audit_tree
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


@pytest.fixture(scope="module")
def static_edges():
    return audit_tree().lock_order_edges()


def _conv_setup(hw=6):
    layer = ConvLayer(name="conv", num_output=2, kernel=(3, 3))
    store = WeightStore()
    rng = np.random.default_rng(5)
    store.set("conv", "weights",
              rng.normal(size=(2, 1, 3, 3)).astype(np.float32))
    store.set("conv", "bias", rng.normal(size=(2,)).astype(np.float32))
    return layer, store, (1, hw, hw)


def test_plan_cache_edge_observed_and_static(static_edges, monkeypatch):
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
    assert ("nn.plan.PlanCache", METRIC) not in static_edges
    assert state.error_count() == 0


def test_registry_reset_edge_observed_and_static(static_edges):
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
    assert ("obs.metrics.MetricsRegistry", METRIC) in observed
    assert observed <= static_edges
    assert state.error_count() == 0


def test_sampler_drop_edge_observed_and_static(static_edges, monkeypatch):
    from repro.obs import sampler as sampler_mod
    from repro.obs.metrics import MetricsRegistry

    state = SanitizerState()
    sampler = sampler_mod.TelemetrySampler(
        registry=MetricsRegistry(gated=False), period=60.0, capacity=1)
    sampler._lock = InstrumentedLock("obs.sampler.TelemetrySampler",
                                     state)
    monkeypatch.setattr(sampler_mod.SAMPLER_DROPPED, "_lock",
                        InstrumentedLock(METRIC, state))
    sampler._sample()
    sampler._sample()  # ring full: SAMPLER_DROPPED.inc under the lock
    assert sampler.overhead()["dropped"] == 1
    observed = state.order_edges()
    assert ("obs.sampler.TelemetrySampler", METRIC) in observed
    assert observed <= static_edges
    assert state.error_count() == 0


def test_export_paths_do_not_nest_registry_over_metric(static_edges):
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


def test_global_realm_is_subgraph_of_static(static_edges):
    """Under ``REPRO_TSAN=1`` (the CI sanitizer run) every edge the
    process-wide realm has seen so far must be statically predicted."""
    if not tsan_enabled():
        pytest.skip("REPRO_TSAN not enabled in this run")
    observed = STATE.order_edges()
    unexpected = observed - static_edges
    assert not unexpected, (
        f"runtime observed lock-order edges the static analysis does"
        f" not predict: {sorted(unexpected)}")
