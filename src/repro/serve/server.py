"""The multi-tenant inference server over the fleet.

:class:`InferenceServer` is the layer the ROADMAP's serving item asks
for: requests enter one at a time (per tenant), pass admission control
(quota + queue bound → typed shedding), coalesce in the
:class:`~repro.serve.batcher.DynamicBatcher`, and execute as padded
bucket-sized batches via :meth:`FleetManager.submit` — so every
submission inherits the fleet's watchdogs, scrubbing and failover for
free.

Time is entirely virtual.  The server models its fleet as a set of
**lanes** (one per managed slot): a flush dispatched at virtual ``now``
starts on the earliest-free lane at ``max(now, lane_free)`` and
completes ``device_seconds`` (the fleet receipt's modeled execution
time) later.  Request latency is completion minus arrival — queueing
delay, batching delay and device time all included — and feeds both the
``condor_serve_latency_seconds`` summary in the metrics registry (the
autoscaler's p99 signal) and a local
:class:`~repro.obs.QuantileSketch` for load reports.

The server owns no thread: callers drive it (``submit`` on arrivals,
``pump`` at batcher deadlines, ``drain`` at shutdown), which keeps
every flush decision deterministic under the
:class:`~repro.resilience.clock.VirtualClock`.
"""

from __future__ import annotations

import collections
import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from repro.errors import FleetError, ServeError, ShedError
from repro.obs import REGISTRY, QuantileSketch
from repro.util.logging import get_logger
from repro.util.sync import new_lock

from repro.serve.batcher import (
    DEFAULT_BUCKETS,
    DynamicBatcher,
    Flush,
    ServeRequest,
)
from repro.serve.tenants import AdmissionController, TenantSpec

__all__ = ["InferenceServer", "ServeConfig"]

_log = get_logger("serve.server")

_REQUESTS = REGISTRY.counter(
    "condor_serve_requests_total",
    "Requests finished, by tenant and status (ok|failed)")
_SHED = REGISTRY.counter(
    "condor_serve_shed_total",
    "Requests refused by admission control, by tenant and reason")
_BATCHES = REGISTRY.counter(
    "condor_serve_batches_total",
    "Coalesced batches executed, by flush trigger and bucket size")
_PADDED = REGISTRY.counter(
    "condor_serve_padded_samples_total",
    "Pad rows added to snap partial batches to their bucket")
_LATENCY = REGISTRY.summary(
    "condor_serve_latency_seconds",
    "End-to-end request latency on the virtual timeline, per server")
_QUEUE_DEPTH = REGISTRY.gauge(
    "condor_serve_queue_depth_count",
    "Requests waiting in the batcher, per server")
_SLOTS = REGISTRY.gauge(
    "condor_serve_slots_count",
    "Fleet slots (serving lanes) attached to the server")


@dataclass(frozen=True)
class ServeConfig:
    """Serving policy knobs (all times in virtual seconds)."""

    #: Label on every ``condor_serve_*`` metric this server emits.
    name: str = "serve"
    #: Latency budget a queued request may spend waiting to batch.
    slo_s: float = 0.010
    #: Batch-size ladder flushes are snapped (padded) to.
    buckets: tuple[int, ...] = DEFAULT_BUCKETS
    #: Queue bound beyond which admission sheds (``reason="queue"``).
    max_queue_depth: int = 512


class InferenceServer:
    """Dynamic-batching, quota-enforcing request front of a fleet."""

    def __init__(self, fleet, tenants, *,
                 config: ServeConfig | None = None, clock=None):
        self.fleet = fleet
        self.config = config if config is not None else ServeConfig()
        self.clock = clock if clock is not None else fleet.clock
        if self.config.buckets and \
                max(self.config.buckets) > fleet.config.capacity:
            raise ServeError(
                f"bucket ladder {self.config.buckets} exceeds fleet"
                f" capacity {fleet.config.capacity}")
        self.batcher = DynamicBatcher(slo_s=self.config.slo_s,
                                      buckets=self.config.buckets)
        self.admission = AdmissionController(
            tenants, max_queue_depth=self.config.max_queue_depth,
            start_s=self.clock.now)
        #: Guards the lane model, tallies and the latency sketch.
        #: Never held across fleet submissions or metric updates.
        self._lock = new_lock("serve.server.InferenceServer")
        self._lanes: list[float] = [self.clock.now] * len(fleet.slots)
        self._ids = itertools.count(0)
        self._completed = 0
        self._failed = 0
        self._shed: dict[str, int] = {}
        self._batch_sizes: dict[int, int] = {}
        self._triggers: dict[str, int] = {}
        self._padded = 0
        self.latency_sketch = QuantileSketch()
        _SLOTS.set(len(fleet.slots), server=self.config.name)
        # read at collect time: the request path makes no gauge update,
        # and the registry holds the batcher only weakly
        batcher = weakref.ref(self.batcher)
        _QUEUE_DEPTH.set_function(
            lambda: None if (b := batcher()) is None else b.depth,
            server=self.config.name)

    # -- the request path ---------------------------------------------------

    def submit(self, tenant: str, image: np.ndarray, *,
               now: float | None = None) -> ServeRequest:
        """Admit one request at virtual time ``now``.

        Sheds with :class:`~repro.errors.ShedError` (also counted in
        ``condor_serve_shed_total``).  An admitted request that fills
        the largest bucket executes its batch before returning; check
        ``request.ok`` / ``request.completion_s`` for the outcome.
        """
        now = self.clock.now if now is None else now
        try:
            self.admission.admit(tenant, now, self.batcher.depth)
        except ShedError as exc:
            with self._lock:
                self._shed[exc.reason] = \
                    self._shed.get(exc.reason, 0) + 1
            _SHED.inc(tenant=tenant, reason=exc.reason)
            raise
        request = ServeRequest(
            tenant=tenant,
            image=np.asarray(image, dtype=np.float32),
            arrival_s=now, request_id=next(self._ids), deadline_s=now)
        flush = self.batcher.offer(request)
        if flush is not None:
            self._execute(flush, now)
        return request

    def pump(self, now: float | None = None) -> int:
        """Execute every SLO-due flush at virtual time ``now``."""
        now = self.clock.now if now is None else now
        executed = 0
        while True:
            flush = self.batcher.due(now)
            if flush is None:
                break
            self._execute(flush, now)
            executed += 1
        return executed

    def drain(self, now: float | None = None) -> int:
        """Flush everything still queued (end of load / shutdown)."""
        now = self.clock.now if now is None else now
        flushes = self.batcher.drain()
        for flush in flushes:
            self._execute(flush, now)
        return len(flushes)

    # -- execution ----------------------------------------------------------

    def _execute(self, flush: Flush, now: float) -> None:
        """Run one flush on the fleet and place it on the timeline."""
        requests = flush.requests
        rows = [r.image for r in requests]
        rows.extend(rows[-1] for _ in range(flush.padding))
        batch = np.stack(rows)
        try:
            receipt = self.fleet.submit(batch, wait=True)
        except FleetError as exc:
            with self._lock:
                self._failed += len(requests)
            for request in requests:
                request.error = str(exc)
                _REQUESTS.inc(tenant=request.tenant, status="failed")
            _log.warning("flush of %d request(s) failed: %s",
                         len(requests), exc)
            return
        with self._lock:
            lane = min(range(len(self._lanes)),
                       key=self._lanes.__getitem__)
            start = max(now, self._lanes[lane])
            completion = start + receipt.device_seconds
            self._lanes[lane] = completion
            self._completed += len(requests)
            self._padded += flush.padding
            self._batch_sizes[flush.bucket] = \
                self._batch_sizes.get(flush.bucket, 0) + 1
            self._triggers[flush.trigger] = \
                self._triggers.get(flush.trigger, 0) + 1
            latencies = [completion - r.arrival_s for r in requests]
            for latency in latencies:
                self.latency_sketch.observe(latency)
        for index, request in enumerate(requests):
            request.output = receipt.outputs[index]
            request.completion_s = completion
            request.bucket = flush.bucket
            request.trigger = flush.trigger
            request.extra["slot"] = receipt.slot
        _LATENCY.observe_many(latencies, server=self.config.name)
        # one counter update per tenant per flush, not per request
        per_tenant = collections.Counter(r.tenant for r in requests)
        for tenant, count in per_tenant.items():
            _REQUESTS.inc(count, tenant=tenant, status="ok")
        _BATCHES.inc(trigger=flush.trigger, size=str(flush.bucket))
        if flush.padding:
            _PADDED.inc(flush.padding)

    # -- autoscaler plumbing ------------------------------------------------

    def sync_lanes(self, now: float | None = None) -> int:
        """Resize the lane model after fleet capacity changed."""
        now = self.clock.now if now is None else now
        with self._lock:
            current = len(self.fleet.slots)
            while len(self._lanes) < current:
                self._lanes.append(now)
            if len(self._lanes) > current:
                del self._lanes[current:]
        _SLOTS.set(current, server=self.config.name)
        return current

    def backlog_s(self, now: float | None = None) -> float:
        """Modeled seconds until the busiest lane goes idle."""
        now = self.clock.now if now is None else now
        with self._lock:
            if not self._lanes:
                return 0.0
            return max(0.0, max(self._lanes) - now)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic snapshot for reports and manifests."""
        depth = self.batcher.depth
        with self._lock:
            return {
                "server": self.config.name,
                "completed": self._completed,
                "failed": self._failed,
                "shed": dict(sorted(self._shed.items())),
                "batches": dict(sorted(self._batch_sizes.items())),
                "triggers": dict(sorted(self._triggers.items())),
                "padded_samples": self._padded,
                "queue_depth": depth,
                "lanes": len(self._lanes),
                "buckets": list(self.batcher.buckets),
                "slo_s": self.config.slo_s,
            }
