"""One owner per serving object.

A server, its batcher and token buckets, and a fleet are each used by
one thread at a time (docs/INTERNALS.md, "Concurrency model"), so
serving builds no lock or event.  Their collect-time gauges hold them
weakly and leave with them.
"""

import gc
import threading

import numpy as np

from repro.obs import REGISTRY
from repro.resilience.clock import VirtualClock
from repro.serve import (
    DEFAULT_TENANTS,
    InferenceServer,
    LoadSpec,
    ServeConfig,
    build_serving_fleet,
    run_load,
)
from tests.serve.conftest import StubFleet, make_fleet


def test_serving_builds_no_lock(monkeypatch):
    built = []

    def counting(name, cls):
        def make(*args, **kwargs):
            built.append(name)
            return cls(*args, **kwargs)
        return make

    build_serving_fleet("lenet", instances=1)  # image and plans, once
    gc.collect()
    monkeypatch.setattr(threading, "Lock", counting("Lock", threading.Lock))
    monkeypatch.setattr(threading, "Event", counting("Event", threading.Event))
    clock = VirtualClock()
    fleet, _ = build_serving_fleet("lenet", instances=1, clock=clock)
    server = InferenceServer(fleet, DEFAULT_TENANTS,
                             config=ServeConfig(name="lenet"),
                             clock=clock)
    report = run_load(server, LoadSpec(rate_rps=500, duration_s=1.0,
                                       seed=0), keep_requests=True)
    monkeypatch.undo()
    assert built == []
    served = [r for r in report.requests if r.ok]
    assert len(served) == report.completed > 400
    for request in served:
        single = fleet.golden.forward_batch(request.image[None]) \
            .reshape(1, -1)[0]
        assert np.array_equal(request.output, single)


def test_serve_gauges_keep_live_servers_only():
    # each server adds two gauge functions under its own name; a
    # collected server's must go, not linger as dead entries
    gauges = [REGISTRY.get("condor_serve_queue_depth_count"),
              REGISTRY.get("condor_serve_slots_count")]
    gc.collect()
    REGISTRY.scalars()
    sizes = [len(gauge._functions) for gauge in gauges]
    for i in range(20):
        InferenceServer(StubFleet("tc1"), DEFAULT_TENANTS,
                        config=ServeConfig(name=f"gauge-owner-{i}"))
    gc.collect()
    REGISTRY.scalars()
    assert [len(gauge._functions) for gauge in gauges] == sizes
    live = InferenceServer(StubFleet("tc1", slots=3), DEFAULT_TENANTS,
                           config=ServeConfig(name="gauge-owner-live"))
    assert gauges[1].value(server="gauge-owner-live") == \
        len(live.fleet.slots) == 3
    assert gauges[1].value(server="gauge-owner-0") == 0.0


def test_fleet_gauge_reads_every_live_fleet(image, weights):
    gauge = REGISTRY.get("condor_fleet_healthy_slots_count")
    gc.collect()
    base = gauge.value()
    clock = VirtualClock()
    small = make_fleet(image, weights, clock=clock)
    large = make_fleet(image, weights, clock=clock, count=2)
    assert (small.healthy_slot_count(), large.healthy_slot_count()) \
        == (2, 4)
    assert gauge.value() == base + 6
    breaker = large.slots[0].breaker
    for _ in range(large.config.failure_threshold):
        breaker.record_failure()  # quarantined
    assert large.healthy_slot_count() == 3
    assert gauge.value() == base + 5
    del large
    gc.collect()
    assert gauge.value() == base + 2
