"""Seeded synthetic load over the virtual clock — ``condor serve``.

The generator draws a Poisson arrival process (exponential
inter-arrival gaps) and a weighted tenant mix from one seeded RNG, then
drives the server as a deterministic three-source event loop: arrivals,
batcher SLO deadlines and autoscaler ticks, always executed in virtual
-time order.  Nothing sleeps on the wall clock, so "four seconds" of
2000 req/s traffic replays in well under a real second and two runs
with the same spec produce byte-identical reports.

The :class:`LoadReport` is the deliverable the ROADMAP names: sustained
requests/sec plus p50/p95/p99 latency (from the server's
:class:`~repro.obs.QuantileSketch`), shed/failed counts, the batch-size
histogram that shows coalescing at work, and every autoscaler action.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.f1 import F1Instance
from repro.errors import ShedError
from repro.fleet import (
    FleetConfig,
    FleetManager,
    build_fleet_image,
    servable_model,
)
from repro.frontend.condor_format import model_from_json
from repro.frontend.weights import WeightStore
from repro.toolchain.xclbin import read_xclbin
from repro.util.logging import get_logger

from repro.serve.tenants import TenantSpec

__all__ = ["DEFAULT_TENANTS", "LoadReport", "LoadSpec",
           "build_serving_fleet", "run_load"]

_log = get_logger("serve.loadgen")

#: The demo tenant mix: a heavy tenant and a light one.
DEFAULT_TENANTS: tuple[TenantSpec, ...] = (
    TenantSpec("alpha", weight=3.0),
    TenantSpec("beta", weight=1.0),
)


@dataclass(frozen=True)
class LoadSpec:
    """One synthetic load scenario (deterministic per seed)."""

    rate_rps: float = 2000.0
    duration_s: float = 4.0
    seed: int = 0
    #: Distinct input images cycled through by the generator.
    image_pool: int = 8
    tenants: tuple[TenantSpec, ...] = DEFAULT_TENANTS


@dataclass
class LoadReport:
    """Deterministic outcome of one :func:`run_load`."""

    model: str
    server: str
    offered: int
    completed: int
    failed: int
    shed: dict
    duration_s: float
    makespan_s: float
    throughput_rps: float
    latency: dict
    batches: dict
    triggers: dict
    padded_samples: int
    tenants: dict
    autoscale: list
    fleet: dict
    #: Populated only with ``keep_requests=True`` (tests/benches).
    requests: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "server": self.server,
            "offered": self.offered,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "duration_s": self.duration_s,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency,
            "batches": self.batches,
            "triggers": self.triggers,
            "padded_samples": self.padded_samples,
            "tenants": self.tenants,
            "autoscale": self.autoscale,
            "fleet": self.fleet,
        }


def build_serving_fleet(model_name: str = "tc1", *, instances: int = 2,
                        instance_type: str = "f1.4xlarge",
                        config: FleetConfig | None = None,
                        clock=None, weight_seed: int = 0):
    """AFI-build a zoo model and stand up a fleet ready to serve it.

    Returns ``(fleet, afi_service)`` — the service is what an
    autoscaler's launch hook needs to spin up more instances against
    the same image.  The default fleet policy disables periodic
    scrubbing (``scrub_every=0``): serving doubles throughput instead
    of paying a golden check every fourth batch, and ``verify=True``
    spot checks remain available.
    """
    model = servable_model(model_name)
    service, agfi_id, xclbin_bytes = build_fleet_image(
        model, name=f"serve-{model_name}")
    net = model_from_json(read_xclbin(xclbin_bytes).network_json).network
    weights = WeightStore.initialize(net, seed=weight_seed)
    fleet_config = config if config is not None \
        else FleetConfig(scrub_every=0)
    fleet = FleetManager(
        [F1Instance(instance_type, service) for _ in range(instances)],
        agfi_id, weights, config=fleet_config, clock=clock)
    return fleet, service


def _arrivals(spec: LoadSpec, start_s: float, rng) \
        -> list[tuple[float, str, int]]:
    """The seeded (time, tenant, image index) arrival schedule."""
    names = [t.name for t in spec.tenants]
    weights = np.array([t.weight for t in spec.tenants], dtype=float)
    weights = weights / weights.sum()
    schedule = []
    now = start_s
    while True:
        now += float(rng.exponential(1.0 / spec.rate_rps))
        if now - start_s >= spec.duration_s:
            return schedule
        tenant = names[int(rng.choice(len(names), p=weights))]
        schedule.append((now, tenant, int(rng.integers(spec.image_pool))))


def run_load(server, spec: LoadSpec, *, autoscaler=None,
             keep_requests: bool = False) -> LoadReport:
    """Drive a fresh ``server`` through ``spec`` on its virtual clock."""
    clock = server.clock
    start = clock.now
    rng = np.random.default_rng(spec.seed)
    shape = server.fleet.net.input_shape().as_tuple()
    pool = rng.standard_normal(
        (spec.image_pool,) + shape).astype(np.float32)
    schedule = _arrivals(spec, start, rng)
    interval = autoscaler.config.interval_s if autoscaler else None
    next_tick = start + interval if interval is not None else None
    requests = []
    offered = dict.fromkeys((t.name for t in spec.tenants), 0)

    def fire_until(limit: float) -> None:
        """Run every deadline/tick event at or before ``limit``."""
        nonlocal next_tick
        while True:
            events = []
            deadline = server.batcher.next_deadline()
            if deadline is not None and deadline <= limit:
                events.append((deadline, "pump"))
            if next_tick is not None and next_tick <= limit:
                events.append((next_tick, "tick"))
            if not events:
                return
            when, kind = min(events)
            if when > clock.now:
                clock.sleep(when - clock.now)
            if kind == "pump":
                server.pump(when)
            else:
                autoscaler.evaluate(when)
                next_tick = when + interval

    for when, tenant, index in schedule:
        fire_until(when)
        if when > clock.now:
            clock.sleep(when - clock.now)
        offered[tenant] += 1
        try:
            requests.append(server.submit(tenant, pool[index], now=when))
        except ShedError:
            pass  # the server counts it
    # Tail: the last partial batches flush at their SLO deadlines.
    while True:
        deadline = server.batcher.next_deadline()
        if deadline is None:
            break
        fire_until(deadline)
    completed = [r for r in requests if r.ok]
    last = max((r.completion_s for r in completed), default=clock.now)
    if last > clock.now:
        clock.sleep(last - clock.now)
    makespan = max(last - start, 0.0)
    sketch = server.latency_sketch
    latency = {
        "count": sketch.count,
        "mean_s": sketch.sum / sketch.count if sketch.count else None,
        "p50_s": sketch.quantile(0.50),
        "p95_s": sketch.quantile(0.95),
        "p99_s": sketch.quantile(0.99),
        "max_s": sketch.max,
    }
    stats = server.stats()
    served = stats["tenants"]
    tenants = {name: {"offered": count,
                      "completed": served[name]["completed"],
                      "shed": served[name]["shed"]}
               for name, count in offered.items()}
    report = LoadReport(
        model=server.fleet.net.name,
        server=server.config.name,
        offered=len(schedule),
        completed=len(completed),
        failed=stats["failed"],
        shed=stats["shed"],
        duration_s=spec.duration_s,
        makespan_s=makespan,
        throughput_rps=len(completed) / makespan if makespan else 0.0,
        latency=latency,
        batches=stats["batches"],
        triggers=stats["triggers"],
        padded_samples=stats["padded_samples"],
        tenants=tenants,
        autoscale=[{"t": t, "direction": d, "detail": detail}
                   for t, d, detail in
                   (autoscaler.events if autoscaler else [])],
        fleet=server.fleet.stats(),
        requests=requests if keep_requests else [],
    )
    _log.info("load done: %d/%d completed, %.0f req/s, p99=%s",
              report.completed, report.offered, report.throughput_rps,
              latency["p99_s"])
    return report
