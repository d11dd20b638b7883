"""The lock-order graph the sanitizer *observes* while driving real code
paths must stay inside the documented lock hierarchy
(docs/INTERNALS.md, "Concurrency model"): one nested acquisition,
``MetricsRegistry.reset`` -> ``Metric``.

The instrumentation here is surgical: a private
:class:`~repro.sanitizer.SanitizerState` plus instrumented locks swapped
into real objects (the plan ledger, a registry and the metrics they
touch),
so the test is deterministic and independent of the ``REPRO_TSAN``
environment.  A final test covers the whole suite: when it runs under
``REPRO_TSAN=1``, every edge the global realm observed must be
documented.
"""

import numpy as np
import pytest

from repro.frontend.weights import WeightStore
from repro.ir.layers import ConvLayer
from repro.sanitizer import STATE, InstrumentedLock, SanitizerState
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


def test_plan_ledger_edge_observed_and_documented(monkeypatch):
    # the ledger's counts are read by the registry at collect time, so
    # no metric lock is ever taken under the ledger lock; the exports
    # take the ledger lock only after releasing the metric's
    from repro.nn import plan as plan_mod

    state = SanitizerState()
    ledger = "nn.plan.PlanLedger"
    monkeypatch.setattr(plan_mod.LEDGER, "_lock",
                        InstrumentedLock(ledger, state))
    metrics = (plan_mod.PLAN_HITS, plan_mod.PLAN_MISSES,
               plan_mod.PLAN_COMPILES, plan_mod.PLAN_COMPILE_SECONDS)
    for metric in metrics:
        monkeypatch.setattr(metric, "_lock",
                            InstrumentedLock(METRIC, state))
    layer, store, in_shape = _conv_setup()
    plan_mod.compile_plan(layer, in_shape, store)   # a miss
    plan_mod.LEDGER.record_hit(3)
    assert (ledger, METRIC) not in state.order_edges()
    before = state.acquire_count()
    for metric in metrics:
        metric.snapshot()
        metric.expose()
        metric.scalar_samples()
    assert state.acquire_count() > before
    assert ledger in state.lock_names()
    assert state.order_edges() == set()
    assert (ledger, METRIC) not in HIERARCHY
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
