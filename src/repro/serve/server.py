"""The multi-tenant inference server over the fleet.

:class:`InferenceServer` is the layer the ROADMAP's serving item asks
for: requests enter one at a time (per tenant), pass admission control
(quota + queue bound → typed shedding), coalesce in the
:class:`~repro.serve.batcher.DynamicBatcher`, and execute as
bucket-sized device batches via :meth:`FleetManager.submit` — so every
submission inherits the fleet's watchdogs, scrubbing and failover for
free.  A flush hands the fleet its requests' rows and its bucket: the
device batch is modeled (and charged) at the bucket, but pad rows are
never built or computed.

Time is entirely virtual.  The server models its fleet as a set of
**lanes** (one per managed slot): a flush dispatched at virtual ``now``
starts on the earliest-free lane at ``max(now, lane_free)`` and
completes ``device_seconds`` (the fleet receipt's modeled execution
time) later.  Request latency is completion minus arrival — queueing
delay, batching delay and device time all included — and feeds the
server's :class:`~repro.obs.QuantileSketch`.  That sketch and one ledger
of counts feed ``stats()`` and, at collect time, the ``condor_serve_*``
registry series.  The autoscaler reads the sketch and the batcher
depth from the server itself, not from those series, which merge every
server built under the same name.

The server owns no thread: callers drive it (``submit`` on arrivals,
``pump`` at batcher deadlines, ``drain`` at shutdown), which keeps
every flush decision deterministic under the
:class:`~repro.resilience.clock.VirtualClock`.  A server, like its
fleet, is used by one thread at a time (docs/INTERNALS.md,
"Concurrency model"): a caller that wants parallel submitters builds
one server and fleet per thread.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import FleetError, ServeError, ShedError
from repro.obs import REGISTRY, QuantileSketch
from repro.obs.metrics import ledger_source
from repro.util.logging import get_logger

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
    "Pad rows charged to snap partial batches to their bucket")
_LATENCY = REGISTRY.summary(
    "condor_serve_latency_seconds",
    "End-to-end request latency on the virtual timeline, per server")
_QUEUE_DEPTH = REGISTRY.gauge(
    "condor_serve_queue_depth_count",
    "Requests waiting in the batcher, per server")
_SLOTS = REGISTRY.gauge(
    "condor_serve_slots_count",
    "Fleet slots (serving lanes) attached to the server")
#: Each counter's kind in the ledger, and its label names.
_LEDGER_METRICS = (
    (_REQUESTS, "done", "tenant", "status"),
    (_SHED, "shed", "tenant", "reason"),
    (_BATCHES, "batch", "trigger", "size"),
    (_PADDED, "padded"),
)


def _tally(ledger: dict, kind: str, field: int) -> dict:
    """The ``kind`` entries of a ledger, summed per ``key[field]``."""
    out: dict = {}
    for key, count in ledger.items():
        if key[0] == kind:
            out[key[field]] = out.get(key[field], 0) + count
    return dict(sorted(out.items()))


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
        self._lanes: list[float] = [self.clock.now] * len(fleet.slots)
        self._ids = itertools.count(0)
        #: ``("done", tenant, ok|failed)``, ``("shed", tenant, reason)``,
        #: ``("batch", trigger, bucket)``, ``("padded",)`` counts
        self._ledger: collections.Counter[tuple] = collections.Counter()
        self.latency_sketch = QuantileSketch()
        # read at collect time; the server is held only weakly, its
        # final counts outlive it, and its gauge series leave with it
        ledger, sketch = self._ledger, self.latency_sketch
        for metric, kind, *labels in _LEDGER_METRICS:
            metric.add_source(ledger_source(ledger, kind, *labels),
                              owner=self)
        name = self.config.name
        _LATENCY.add_source(lambda: {(("server", name),): sketch},
                            owner=self)
        batcher, lanes = self.batcher, self._lanes
        _QUEUE_DEPTH.set_function(lambda: batcher.depth, owner=self,
                                  server=name)
        _SLOTS.set_function(lambda: len(lanes), owner=self, server=name)

    # -- the request path ---------------------------------------------------

    def submit(self, tenant: str, image: np.ndarray, *,
               now: float | None = None) -> ServeRequest:
        """Admit one request at virtual time ``now``.

        Sheds with :class:`~repro.errors.ShedError` (also counted in
        the ledger, by tenant and reason).  An admitted request that fills
        the largest bucket executes its batch before returning; check
        ``request.ok`` / ``request.completion_s`` for the outcome.
        """
        now = self.clock.now if now is None else now
        try:
            self.admission.admit(tenant, now, self.batcher.depth)
        except ShedError as exc:
            self._ledger["shed", tenant, exc.reason] += 1
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
        batch = np.stack([r.image for r in requests])
        try:
            receipt = self.fleet.submit(batch, bucket=flush.bucket)
        except FleetError as exc:
            for request in requests:
                self._ledger["done", request.tenant, "failed"] += 1
                request.error = str(exc)
            _log.warning("flush of %d request(s) failed: %s",
                         len(requests), exc)
            return
        lane = min(range(len(self._lanes)), key=self._lanes.__getitem__)
        start = max(now, self._lanes[lane])
        completion = start + receipt.device_seconds
        self._lanes[lane] = completion
        ledger = self._ledger
        for request in requests:
            ledger["done", request.tenant, "ok"] += 1
            self.latency_sketch.observe(completion - request.arrival_s)
        ledger["batch", flush.trigger, flush.bucket] += 1
        if flush.padding:
            ledger[("padded",)] += flush.padding
        for index, request in enumerate(requests):
            request.output = receipt.outputs[index]
            request.completion_s = completion
            request.bucket = flush.bucket
            request.trigger = flush.trigger
            request.extra["slot"] = receipt.slot

    # -- autoscaler plumbing ------------------------------------------------

    def sync_lanes(self, now: float | None = None) -> int:
        """Resize the lane model after fleet capacity changed."""
        now = self.clock.now if now is None else now
        current = len(self.fleet.slots)
        while len(self._lanes) < current:
            self._lanes.append(now)
        del self._lanes[current:]
        return current

    def backlog_s(self, now: float | None = None) -> float:
        """Modeled seconds until the busiest lane goes idle."""
        now = self.clock.now if now is None else now
        if not self._lanes:
            return 0.0
        return max(0.0, max(self._lanes) - now)

    def latency_quantile(self, q: float) -> float | None:
        """A quantile of this server's request latency so far (``None``
        before its first completed request)."""
        return self.latency_sketch.quantile(q)

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic snapshot for reports and manifests."""
        ledger = self._ledger
        status = _tally(ledger, "done", 2)
        shed = _tally(ledger, "shed", 1)
        tenants = {t: {"completed": ledger.get(("done", t, "ok"), 0),
                       "failed": ledger.get(("done", t, "failed"), 0),
                       "shed": shed.get(t, 0)}
                   for t in self.admission.tenants}
        return {
            "server": self.config.name,
            "completed": status.get("ok", 0),
            "failed": status.get("failed", 0),
            "shed": _tally(ledger, "shed", 2),
            "batches": _tally(ledger, "batch", 2),
            "triggers": _tally(ledger, "batch", 1),
            "padded_samples": ledger.get(("padded",), 0),
            "tenants": tenants,
            "queue_depth": self.batcher.depth,
            "lanes": len(self._lanes),
            "buckets": list(self.batcher.buckets),
            "slo_s": self.config.slo_s,
        }
