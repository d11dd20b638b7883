"""Dynamic batching: coalesce single requests into bucketed batches.

The accelerator amortizes per-invocation configuration and pipeline
fill over the batch (``batch_cycles = fill + (n-1)·II``).  The
:class:`DynamicBatcher` snaps every flush to a small ladder of
**buckets** (default 1/2/4/8), the device batches the fleet runs: a
flush of three requests runs as a device batch of four.
The bucket is what the device is modeled (and charged) at; the pad
row is never built or computed — the server hands the fleet the three
real rows and the bucket separately.

Two triggers release work, both deterministic on the virtual clock:

* **size** — the queue reached the largest bucket: flush immediately,
  no padding needed;
* **slo** — the *oldest* queued request's latency budget
  (``slo_s``) is about to elapse: flush whatever is queued, padded up
  to the smallest covering bucket.

The batcher never sleeps and never owns a thread; callers (the serving
event loop) ask :meth:`next_deadline` when the earliest SLO flush is
due and drive :meth:`due` at that instant.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServeError

__all__ = ["DEFAULT_BUCKETS", "DynamicBatcher", "Flush", "ServeRequest"]

#: The default batch-size ladder: the device batches a flush runs as.
DEFAULT_BUCKETS: tuple[int, ...] = (1, 2, 4, 8)


@dataclass
class ServeRequest:
    """One in-flight inference request and, later, its outcome."""

    tenant: str
    image: np.ndarray
    arrival_s: float
    request_id: int
    #: Absolute virtual time by which this request should be flushed.
    deadline_s: float
    output: np.ndarray | None = None
    completion_s: float | None = None
    #: Device batch the carrying flush ran as (set at execution).
    bucket: int | None = None
    #: Why the carrying batch flushed: ``size`` | ``slo`` | ``drain``.
    trigger: str | None = None
    error: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.output is not None

    @property
    def latency_s(self) -> float | None:
        if self.completion_s is None:
            return None
        return self.completion_s - self.arrival_s


@dataclass(frozen=True)
class Flush:
    """A batch released by the batcher, ready for the fleet."""

    requests: tuple[ServeRequest, ...]
    bucket: int
    trigger: str

    @property
    def padding(self) -> int:
        """Pad rows the device batch carries beyond the requests
        (charged, never computed)."""
        return self.bucket - len(self.requests)


class DynamicBatcher:
    """FIFO coalescer with bucketed, SLO-bounded flushes (one thread
    at a time, like the server that owns it)."""

    def __init__(self, *, slo_s: float = 0.010,
                 buckets: tuple[int, ...] = DEFAULT_BUCKETS):
        if slo_s <= 0:
            raise ServeError(f"batching SLO must be positive, got {slo_s}")
        ladder = tuple(sorted(set(int(b) for b in buckets)))
        if not ladder or ladder[0] < 1:
            raise ServeError(f"invalid bucket ladder {buckets!r}")
        self.slo_s = float(slo_s)
        self.buckets = ladder
        self.max_batch = ladder[-1]
        self._pending: deque[ServeRequest] = deque()

    @property
    def depth(self) -> int:
        """Requests currently queued (the admission-control signal)."""
        return len(self._pending)

    def bucket_for(self, count: int) -> int:
        """The smallest bucket covering ``count`` requests."""
        index = bisect.bisect_left(self.buckets, count)
        if index == len(self.buckets):
            raise ServeError(
                f"no bucket covers a batch of {count}"
                f" (ladder {self.buckets})")
        return self.buckets[index]

    def offer(self, request: ServeRequest) -> Flush | None:
        """Queue one admitted request; a full largest bucket flushes
        immediately (the *size* trigger — zero padding by
        construction)."""
        request.deadline_s = request.arrival_s + self.slo_s
        self._pending.append(request)
        if len(self._pending) >= self.max_batch:
            return self._flush(self.max_batch, "size")
        return None

    def next_deadline(self) -> float | None:
        """Virtual time of the earliest SLO-triggered flush, if any."""
        if not self._pending:
            return None
        return self._pending[0].deadline_s

    def due(self, now: float) -> Flush | None:
        """Flush if the oldest request's SLO deadline has arrived."""
        if not self._pending or self._pending[0].deadline_s > now:
            return None
        count = min(len(self._pending), self.max_batch)
        return self._flush(self.bucket_for(count), "slo")

    def drain(self) -> list[Flush]:
        """Flush everything queued (shutdown / end of load)."""
        flushes = []
        while self._pending:
            count = min(len(self._pending), self.max_batch)
            flushes.append(self._flush(self.bucket_for(count), "drain"))
        return flushes

    def _flush(self, bucket: int, trigger: str) -> Flush:
        taken = tuple(self._pending.popleft()
                      for _ in range(min(len(self._pending), bucket)))
        return Flush(requests=taken, bucket=bucket, trigger=trigger)
