"""One ledger per subsystem.

The server, the fleet and the plan ledger count their own events; the
registry's ``condor_serve_*``, ``condor_fleet_*`` and
``condor_plan_cache_*`` counters read those counts at collect time.  So
after any traffic — faults, shedding, failed and padded flushes
included — every registry counter equals what ``stats()`` reports, and
the counts outlive the objects that made them.
"""

import gc
import logging
import weakref

import numpy as np
import pytest

from repro.errors import ShedError
from repro.fleet import FleetConfig
from repro.nn.plan import default_plan_cache
from repro.obs import REGISTRY
from repro.resilience.boundary import inject_faults
from repro.resilience.clock import VirtualClock
from repro.resilience.faults import (
    DEVICE_PATTERN,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.serve import InferenceServer, ServeConfig, TenantSpec
from tests.serve.conftest import make_fleet

TENANTS = (TenantSpec("alpha"), TenantSpec("beta", quota_rps=1.0, burst=1))
COUNTERS = (
    "condor_serve_requests_total",
    "condor_serve_shed_total",
    "condor_serve_batches_total",
    "condor_serve_padded_samples_total",
    "condor_fleet_submissions_total",
    "condor_fleet_failovers_total",
    "condor_fleet_watchdog_trips_total",
    "condor_fleet_scrub_catches_total",
    "condor_fleet_quarantines_total",
    "condor_fleet_reloads_total",
    "condor_plan_cache_hits_total",
    "condor_plan_cache_misses_total",
)
PLAN_STATS = ("hits", "misses")


def _series() -> dict:
    """``{(counter, labels): value}`` for every series of ``COUNTERS``."""
    out = {}
    for name in COUNTERS:
        for entry in REGISTRY.get(name).snapshot()["values"]:
            labels = tuple(sorted(entry["labels"].items()))
            out[name, labels] = entry["value"]
    return out


def _by(delta: dict, name: str, label: str | None = None) -> dict:
    """One counter's deltas summed per value of ``label`` (all of them
    under ``None`` when no label is given); zero entries dropped."""
    out: dict = {}
    for (metric, labels), value in delta.items():
        if metric == name and value:
            key = dict(labels)[label] if label else None
            out[key] = out.get(key, 0) + value
    return out


def _sum_stats(stats: list[dict], key: str) -> dict:
    out: dict = {}
    for entry in stats:
        for k, v in entry[key].items():
            out[k] = out.get(k, 0) + v
    return out


def _traffic(fleet, name, clock):
    """Two servers on one fleet: size, SLO (padded) and drain (padded)
    flushes, quota and queue shedding, all under SEU and crash
    weather with a scrub on every submission; then a dead fleet fails
    one flush."""
    server = InferenceServer(
        fleet, TENANTS, config=ServeConfig(name=name), clock=clock)
    tight = InferenceServer(
        fleet, TENANTS,
        config=ServeConfig(name=f"{name}-tight", buckets=(4,),
                           max_queue_depth=2),
        clock=clock)
    rng = np.random.default_rng(23)
    pool = rng.standard_normal(
        (8,) + fleet.net.input_shape().as_tuple()).astype(np.float32)
    weather = FaultPlan([
        FaultSpec(DEVICE_PATTERN, FaultKind.BITFLIP, times=2),
        FaultSpec(DEVICE_PATTERN, FaultKind.SLOT_CRASH)], seed=23)
    with inject_faults(weather):
        for _ in range(3):
            clock.sleep(1.0)  # quarantined slots may recover between rounds
            now = clock.now
            for i in range(8):  # fills the largest bucket: size flush
                server.submit("alpha", pool[i], now=now)
            server.submit("beta", pool[0], now=now)
            with pytest.raises(ShedError, match="quota"):
                server.submit("beta", pool[1], now=now)
            for i in range(2):  # three queued, padded to four at SLO
                server.submit("alpha", pool[i], now=now)
            assert server.pump(now + 0.5) == 1
            tight.submit("alpha", pool[2], now=now)
            tight.submit("beta", pool[3], now=now + 0.5)
            with pytest.raises(ShedError, match="queue"):
                tight.submit("alpha", pool[4], now=now + 0.5)
            assert tight.drain(now + 0.5) == 1
    assert weather.total_injected == 3
    dead = FaultPlan([FaultSpec(DEVICE_PATTERN, FaultKind.PERMANENT)],
                     seed=24)
    with inject_faults(dead):
        now = clock.now + 1.0
        request = tight.submit("alpha", pool[5], now=now)
        tight.drain(now)
    assert request.error is not None
    return server, tight


def test_registry_counters_equal_the_ledgers(image, weights, server_name):
    clock = VirtualClock()
    fleet = make_fleet(image, weights, clock=clock, count=2,
                       config=FleetConfig(scrub_every=1,
                                          failure_threshold=1,
                                          recovery_s=0.25))
    plans_before = default_plan_cache().stats()
    before = _series()
    servers = _traffic(fleet, server_name, clock)
    after = _series()
    plans_after = default_plan_cache().stats()
    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in set(before) | set(after)}
    stats = [s.stats() for s in servers]
    actions = fleet.stats()["actions"]

    # the traffic exercised every path the ledgers count
    assert sum(s["failed"] for s in stats) == 1
    assert set(_sum_stats(stats, "shed")) == {"queue", "quota"}
    assert set(_sum_stats(stats, "triggers")) == {"size", "slo", "drain"}
    assert sum(s["padded_samples"] for s in stats) > 0
    assert {"scrub_catch", "failover", "quarantine", "reload"} <= \
        set(actions)

    requests = {}
    for s in stats:
        for tenant, counts in s["tenants"].items():
            for status, key in (("ok", "completed"), ("failed", "failed")):
                if counts[key]:
                    requests[tenant, status] = \
                        requests.get((tenant, status), 0) + counts[key]
    assert {(dict(labels)["tenant"], dict(labels)["status"]): value
            for (name, labels), value in delta.items()
            if name == "condor_serve_requests_total" and value} \
        == requests
    assert sum(requests.values()) == \
        sum(s["completed"] + s["failed"] for s in stats)
    assert _by(delta, "condor_serve_shed_total", "reason") == \
        _sum_stats(stats, "shed")
    assert _by(delta, "condor_serve_shed_total", "tenant") == {
        tenant: n for tenant in ("alpha", "beta")
        if (n := sum(s["tenants"][tenant]["shed"] for s in stats))}
    assert _by(delta, "condor_serve_batches_total", "trigger") == \
        _sum_stats(stats, "triggers")
    assert _by(delta, "condor_serve_batches_total", "size") == {
        str(size): n for size, n in _sum_stats(stats, "batches").items()}
    assert _by(delta, "condor_serve_padded_samples_total") == \
        {None: sum(s["padded_samples"] for s in stats)}

    # one failed fleet submission: the dead-fleet flush
    assert _by(delta, "condor_fleet_submissions_total", "status") == \
        {"ok": actions["submission"], "failed": 1}
    for metric, action in (("failovers", "failover"),
                           ("watchdog_trips", "watchdog_trip"),
                           ("scrub_catches", "scrub_catch"),
                           ("quarantines", "quarantine"),
                           ("reloads", "reload")):
        total = sum(_by(delta, f"condor_fleet_{metric}_total").values())
        assert total == actions.get(action, 0), metric
    assert _by(delta, "condor_fleet_scrub_catches_total", "check") == \
        {"digest": actions["scrub_catch"]}
    assert sum(_by(delta, "condor_fleet_quarantines_total",
                   "slot").values()) == actions["quarantine"]

    for stat in PLAN_STATS:
        moved = plans_after[stat] - plans_before[stat]
        assert sum(_by(delta, f"condor_plan_cache_{stat}_total")
                   .values()) == moved, stat

    latency = REGISTRY.get("condor_serve_latency_seconds")
    for server, s in zip(servers, stats):
        name = server.config.name
        assert latency.count(server=name) == s["completed"]
        assert latency.quantile(0.99, server=name) == \
            server.latency_sketch.quantile(0.99)


def test_counts_outlive_their_server_and_fleet(image, weights, server_name,
                                              caplog):
    # a captured warning record holds its failure's traceback, and so
    # the frames that reference the server and the fleet
    caplog.set_level(logging.ERROR, logger="repro")
    clock = VirtualClock()
    fleet = make_fleet(image, weights, clock=clock, count=2,
                       config=FleetConfig(scrub_every=1,
                                          failure_threshold=1,
                                          recovery_s=0.25))
    server, tight = _traffic(fleet, server_name, clock)
    slots = REGISTRY.get("condor_serve_slots_count")
    latency = REGISTRY.get("condor_serve_latency_seconds")
    assert slots.value(server=server_name) == len(fleet.slots)
    counts = _series()
    served = latency.count(server=server_name)
    refs = [weakref.ref(obj) for obj in (server, tight, fleet)]
    del server, tight, fleet
    gc.collect()
    assert all(ref() is None for ref in refs)
    # monotonic: nothing counted by the collected objects is lost
    assert _series() == counts
    assert latency.count(server=server_name) == served > 0
    # gauges over live state drop the collected server's series
    assert {"server": server_name} not in \
        [v["labels"] for v in slots.snapshot()["values"]]


def test_sources_keep_live_owners_only(image, weights, server_name,
                                       monkeypatch):
    """Dropped servers and fleets leave the process-wide metrics: their
    sources fold into the totals and go, so reads stay flat however
    many servers a process builds, and ``scalars()`` copies no sketch."""
    from repro.obs import metrics

    clock = VirtualClock()
    sourced = [REGISTRY.get(name) for name in
               COUNTERS + ("condor_serve_latency_seconds",)]

    def build_and_drop():
        fleet = make_fleet(image, weights, clock=clock)
        server = InferenceServer(fleet, TENANTS,
                                 config=ServeConfig(name=server_name),
                                 clock=clock)
        server.submit("alpha", np.zeros(fleet.net.input_shape()
                                        .as_tuple(), np.float32))
        server.drain()

    build_and_drop()
    gc.collect()
    REGISTRY.scalars()
    sizes = [len(metric._sources) for metric in sourced]
    latency = REGISTRY.get("condor_serve_latency_seconds")
    served = latency.count(server=server_name)
    for _ in range(20):
        build_and_drop()
    gc.collect()

    def deepcopy(*args, **kwargs):
        raise AssertionError("scalars() copied a sketch")
    monkeypatch.setattr(metrics.copy, "deepcopy", deepcopy)
    flat = REGISTRY.scalars()
    monkeypatch.undo()
    assert [len(metric._sources) for metric in sourced] == sizes
    assert latency.count(server=server_name) == served + 20
    assert flat["condor_serve_latency_seconds_count"] >= served + 20
