"""The fleet manager: watchdogs, scrubbing, quarantine and failover.

:class:`FleetManager` owns every FPGA slot of a set of F1 instances
loaded with the same AFI and the same weights, and exposes one verb —
:meth:`FleetManager.run` — that executes a batch on *some* healthy slot
and returns bit-correct outputs or raises
:class:`~repro.errors.FleetError`.  Between those two outcomes sits the
health machinery:

* **watchdog** — every kernel invocation's modeled device seconds
  (injected hangs and slowdowns included) are checked against a
  deadline; a hung or pathologically slow device trips
  :class:`~repro.errors.WatchdogTimeoutError` instead of wedging the
  caller.  Device time is the invocation's own: no fault moves the
  fleet's clock;
* **scrubbing** — every ``scrub_every``-th submission per slot (and
  every ``verify=True`` submission) checks the slot's loaded weight
  buffer digest against the golden digest recorded at attach, and the
  submission's outputs against the reference engine's golden results.
  Silent SEU corruption is repaired on the spot (AFI re-load + weight
  rewrite) and the tainted submission is retried elsewhere;
* **quarantine** — each slot's failures feed a
  :class:`~repro.resilience.breaker.CircuitBreaker` the fleet builds
  for that slot on its own clock (boundary ``fleet.<label>``); no
  other fleet shares it, even one with the same slot labels, and
  ``stats()`` reports it per slot.
  An open breaker removes the slot from rotation; once its recovery
  window elapses the manager re-loads the AFI, rewrites the weights and
  re-probes the slot against the golden engine before trusting it again;
* **failover** — a failed invocation moves to the next healthy slot
  (round-robin), up to ``max_attempts``; a fleet with no healthy slot
  degrades to :class:`~repro.errors.FleetError` rather than hanging.

Nothing here sleeps on the wall clock, so drills over hours of modeled
weather run in milliseconds.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    DeviceLostError,
    FleetError,
    ScrubMismatchError,
    WatchdogTimeoutError,
)
from repro.frontend.condor_format import model_from_json
from repro.nn.engine import ReferenceEngine
from repro.obs import REGISTRY
from repro.obs.metrics import ledger_source
from repro.resilience.breaker import HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.clock import DEFAULT_CLOCK, VirtualClock
from repro.runtime.opencl import (
    Buffer,
    CommandQueue,
    Context,
    Kernel,
    Program,
    pack_weights,
)
from repro.toolchain.xclbin import read_xclbin
from repro.util.logging import get_logger
from repro.util.sync import new_lock

from repro.fleet.health import ManagedSlot, SlotState

__all__ = ["FleetConfig", "FleetManager", "Submission"]

_log = get_logger("fleet.manager")

_SUBMISSIONS = REGISTRY.counter(
    "condor_fleet_submissions_total",
    "Batches submitted to the fleet, by final status")
_FAILOVERS = REGISTRY.counter(
    "condor_fleet_failovers_total",
    "In-flight work moved off a failing slot, by failure reason")
_WATCHDOG_TRIPS = REGISTRY.counter(
    "condor_fleet_watchdog_trips_total",
    "Kernel invocations killed by the watchdog deadline")
_SCRUB_CATCHES = REGISTRY.counter(
    "condor_fleet_scrub_catches_total",
    "Corruption caught by scrubbing, by check (digest|golden)")
_QUARANTINES = REGISTRY.counter(
    "condor_fleet_quarantines_total",
    "Slots quarantined (circuit opened), by slot label")
_RELOADS = REGISTRY.counter(
    "condor_fleet_reloads_total",
    "AFI re-loads issued for repair or recovery")
_HEALTHY_SLOTS = REGISTRY.gauge(
    "condor_fleet_healthy_slots_count",
    "Slots currently not quarantined (the most recently built fleet)")
#: Each counter's action in the ledger, and its label name.
_LEDGER_METRICS = (
    (_SUBMISSIONS, "submission", "status"),
    (_FAILOVERS, "failover", "reason"),
    (_WATCHDOG_TRIPS, "watchdog_trip"),
    (_SCRUB_CATCHES, "scrub_catch", "check"),
    (_QUARANTINES, "quarantine", "slot"),
    (_RELOADS, "reload"),
)

#: Seed for the golden probe input used by recovery checks.
_PROBE_SEED = 7

#: Failure types that trigger failover (everything else propagates —
#: a shape error is the caller's bug, not slot weather).
FAILOVER_ERRORS = (DeviceLostError, WatchdogTimeoutError,
                   ScrubMismatchError)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet policy knobs (all times in virtual seconds)."""

    #: Kernel invocation deadline; hung devices trip this.
    watchdog_s: float = 60.0
    #: Scrub every Nth submission per slot (0 disables periodic scrubs;
    #: ``verify=True`` submissions are always scrubbed).
    scrub_every: int = 4
    #: Consecutive slot failures before quarantine.
    failure_threshold: int = 2
    #: Quarantine duration before a recovery probe is attempted.
    recovery_s: float = 240.0
    #: Failover budget per submission.
    max_attempts: int = 12
    #: Largest batch a submission may carry (sizes the device buffers).
    capacity: int = 8


@dataclass(frozen=True)
class Submission:
    """Receipt for one completed fleet submission.

    ``device_seconds`` is the *modeled* time the serving slot spent on
    the device batch (queue delay + kernel cycles at the accelerator
    clock) — the serving layer uses it to place completions on its
    virtual timeline.  ``outputs`` holds one row per submitted image.
    ``attempts`` counts invocations including failovers.
    """

    outputs: np.ndarray
    device_seconds: float
    slot: str
    attempts: int


class FleetManager:
    """Health-managed execution over the slots of ``instances``.

    All instances are loaded with ``agfi_id`` and the packed ``weights``
    at attach time; attach performs no kernel launches, so building a
    fleet under an armed fault plan is deterministic and fault-free.
    """

    def __init__(self, instances, agfi_id: str, weights, *,
                 config: FleetConfig | None = None,
                 clock: VirtualClock | None = None):
        if not instances:
            raise FleetError("a fleet needs at least one instance")
        self.instances = list(instances)
        self.agfi_id = agfi_id
        self.config = config if config is not None else FleetConfig()
        self.clock = clock if clock is not None else DEFAULT_CLOCK

        record = self.instances[0].afi_service.resolve_agfi(agfi_id)
        if record.xclbin_bytes is None:
            raise FleetError(
                f"AFI {agfi_id} is not available; wait for it first")
        self._xclbin = read_xclbin(record.xclbin_bytes)
        self.net = model_from_json(self._xclbin.network_json).network
        self.golden = ReferenceEngine(self.net, weights)
        self._packed = pack_weights(self.net, weights)
        self._golden_digest = hashlib.sha256(
            self._packed.tobytes()).hexdigest()
        self._in_size = int(np.prod(self.net.input_shape().as_tuple()))
        self._out_size = self.net.output_shape().size
        rng = np.random.default_rng(_PROBE_SEED)
        self._probe_in = rng.standard_normal(
            (1,) + self.net.input_shape().as_tuple()).astype(np.float32)
        self._probe_out = self.golden.forward_batch(self._probe_in) \
            .reshape(1, self._out_size)

        #: Guards the round-robin cursor, slot busy flags and counters,
        #: and the action ledger.  Never held across device work.
        self._lock = new_lock("fleet.manager.FleetManager")
        #: Pulsed (outside the lock) whenever a slot goes idle or joins
        #: the rotation, so ``submit(..., wait=True)`` callers blocked
        #: on an all-busy fleet re-scan promptly.  Waits are bounded,
        #: so a missed pulse costs latency, never liveness.
        self._slot_freed = threading.Event()
        self._cursor = 0
        #: ``(action, label)`` counts, e.g. ``("failover", "DeviceLostError")``
        self._actions: Counter[tuple[str, str]] = Counter()
        for metric, action, *label in _LEDGER_METRICS:
            metric.add_source(ledger_source(self._actions, action, *label),
                              lock=self._lock, owner=self)
        self.slots: list[ManagedSlot] = []
        for j, instance in enumerate(self.instances):
            for slot in instance.slots:
                self.slots.append(
                    self._attach(f"i{j}.slot{slot.index}", instance,
                                 slot))
        #: Monotonic instance ordinal for slot labels — never reused,
        #: so labels stay unique across add/drain cycles.
        self._next_ordinal = len(self.instances)
        # read at collect time, so no health transition (nor any
        # successful submission) pays a gauge update; held weakly so
        # the process-wide registry does not keep the fleet alive
        fleet = weakref.ref(self)
        _HEALTHY_SLOTS.set_function(
            lambda: None if (f := fleet()) is None
            else f.healthy_slot_count())
        _log.info("fleet attached: %d slot(s) across %d instance(s)",
                  len(self.slots), len(self.instances))

    # -- attach / repair ----------------------------------------------------

    def _attach(self, label: str, instance, slot) -> ManagedSlot:
        """Load the AFI and build the runtime plumbing for one slot."""
        instance.load_afi(slot.index, self.agfi_id)
        context = Context(slot.device)
        program = Program(context, self._xclbin)
        kernel = Kernel(program, program.kernel_names()[0])
        capacity = self.config.capacity
        in_buf = Buffer(context, Buffer.READ_ONLY,
                        capacity * self._in_size * 4)
        out_buf = Buffer(context, Buffer.WRITE_ONLY,
                         capacity * self._out_size * 4)
        w_buf = Buffer(context, Buffer.READ_ONLY, self._packed.size * 4)
        queue = CommandQueue(context, emulation="fast")
        queue.enqueue_write_buffer(w_buf, self._packed)
        kernel.set_arg(0, in_buf)
        kernel.set_arg(1, out_buf)
        kernel.set_arg(2, w_buf)
        kernel.set_arg(3, 1)
        breaker = CircuitBreaker(
            f"fleet.{label}", clock=self.clock,
            failure_threshold=self.config.failure_threshold,
            recovery_s=self.config.recovery_s)
        return ManagedSlot(label=label, instance=instance, slot=slot,
                           breaker=breaker, context=context,
                           kernel=kernel, queue=queue, in_buf=in_buf,
                           out_buf=out_buf, w_buf=w_buf)

    def _repair(self, managed: ManagedSlot) -> None:
        """Re-load the AFI and rewrite golden weights on a held slot."""
        managed.instance.load_afi(managed.slot.index, self.agfi_id)
        managed.queue.enqueue_write_buffer(managed.w_buf, self._packed)
        with self._lock:
            managed.reloads += 1
            self._actions["reload", ""] += 1
        _log.info("slot %s: AFI re-loaded, weights rewritten",
                  managed.label)

    # -- the public verb ----------------------------------------------------

    def run(self, images, *, verify: bool = False) -> np.ndarray:
        """Execute one batch on a healthy slot; outputs are
        ``(batch, output_size)`` float32, bit-identical to the golden
        reference engine.

        ``verify=True`` forces a scrub on the serving slot before the
        outputs are accepted.  Raises :class:`FleetError` when the
        failover budget is exhausted or no healthy slot remains.
        """
        return self.submit(images, verify=verify).outputs

    def submit(self, images, *, bucket: int | None = None,
               verify: bool = False, wait: bool = False) -> Submission:
        """Like :meth:`run`, but returns a :class:`Submission` receipt
        (outputs + modeled device seconds + serving slot).

        ``bucket`` is the device batch the kernel runs and is timed on
        (kernel arg 3; default: one per image).  Only the images are
        written and computed: the ``bucket - len(images)`` pad rows are
        modeled, so every figure keyed on the device batch (cycles,
        device seconds, the watchdog) is the bucket's.

        ``wait=True`` is the concurrent-submitter mode: when every
        healthy slot is busy the caller blocks (bounded re-scans on the
        slot-freed signal) until one frees up, instead of failing.  A
        fleet with no healthy slot still raises :class:`FleetError` —
        waiting is for contention, not for quarantine recovery.
        """
        batch = np.asarray(images, dtype=np.float32)
        batch = batch.reshape((batch.shape[0],) +
                              self.net.input_shape().as_tuple())
        bucket = batch.shape[0] if bucket is None else int(bucket)
        if not 1 <= batch.shape[0] <= bucket:
            raise FleetError(
                f"{batch.shape[0]} image(s) do not fit a device batch"
                f" of {bucket}")
        if bucket > self.config.capacity:
            raise FleetError(
                f"batch of {bucket} exceeds fleet capacity"
                f" {self.config.capacity}")
        failures = 0
        attempts = 0
        last_error: Exception | None = None
        while failures < self.config.max_attempts:
            self._heal()
            managed = self._acquire(wait=wait)
            if managed is None:
                break
            attempts += 1
            try:
                outputs, device_seconds = self._invoke(
                    managed, batch, bucket, verify=verify)
            except FAILOVER_ERRORS as exc:
                last_error = exc
                failures += 1
                self._record_failure(managed, exc)
                with self._lock:
                    self._actions["failover", type(exc).__name__] += 1
                continue
            finally:
                self._release(managed)
            managed.breaker.record_success()
            with self._lock:
                self._actions["submission", "ok"] += 1
            return Submission(outputs=outputs,
                              device_seconds=device_seconds,
                              slot=managed.label, attempts=attempts)
        with self._lock:
            self._actions["submission", "failed"] += 1
        detail = f" (last error: {last_error})" if last_error else ""
        raise FleetError(
            f"submission failed after {failures} attempt(s);"
            f" {self.healthy_slot_count()} healthy slot(s)"
            f" remain{detail}") from last_error

    # -- slot selection -----------------------------------------------------

    def _next_idle_locked(self) -> ManagedSlot | None:
        """The next idle, healthy, non-draining slot (lock held)."""
        count = len(self.slots)
        for offset in range(count):
            index = (self._cursor + offset) % count
            managed = self.slots[index]
            if managed.busy or managed.draining or \
                    managed.breaker.state == OPEN:
                continue
            self._cursor = (index + 1) % count
            return managed
        return None

    def _acquire(self, *, wait: bool = False) -> ManagedSlot | None:
        """Claim the next non-quarantined idle slot, round-robin.

        ``wait=True``: while no slot is idle but at least one is busy
        (so a release is coming), block on the slot-freed signal and
        re-scan.  The wait is time-bounded, so a signal lost to the
        benign clear/set race below costs one re-scan interval, never
        a hang; and a fleet whose busy slots all quarantined on release
        is noticed at the next re-scan and gives up cleanly.
        """
        while True:
            with self._lock:
                managed = self._next_idle_locked()
                if managed is not None:
                    managed.busy = True
                    return managed
                if not wait or not any(s.busy for s in self.slots):
                    return None
                self._slot_freed.clear()
            self._slot_freed.wait(timeout=0.05)

    def _release(self, managed: ManagedSlot) -> None:
        with self._lock:
            managed.busy = False
            if managed.draining:
                self._reap_drained_locked()
        self._slot_freed.set()

    def _record_failure(self, managed: ManagedSlot,
                        exc: Exception) -> None:
        opened_before = managed.breaker.opened_count
        managed.breaker.record_failure()
        quarantined = managed.breaker.opened_count > opened_before
        if quarantined:
            _log.warning("slot %s quarantined: %s", managed.label, exc)
        else:
            _log.info("slot %s failure (%s): %s", managed.label,
                      managed.breaker.state, exc)
        with self._lock:
            managed.failures += 1
            if quarantined:
                self._actions["quarantine", managed.label] += 1

    # -- recovery -----------------------------------------------------------

    def _heal(self) -> None:
        """Probe every quarantined slot whose recovery window elapsed."""
        with self._lock:
            snapshot = list(self.slots)
        for managed in snapshot:
            with self._lock:
                if managed.busy or managed.draining or \
                        managed.breaker.state != HALF_OPEN:
                    continue
                managed.busy = True
            try:
                self._recover(managed)
            finally:
                self._release(managed)

    def _recover(self, managed: ManagedSlot) -> None:
        """Half-open recovery probe: re-load, rewrite, verify golden."""
        managed.breaker.allow()  # materialize the half-open probe
        with self._lock:
            self._actions["recovery", ""] += 1
        try:
            self._repair(managed)
            self._probe(managed)
        except FAILOVER_ERRORS as exc:
            self._record_failure(managed, exc)
            return
        managed.breaker.record_success()
        _log.info("slot %s recovered", managed.label)

    def _probe(self, managed: ManagedSlot) -> None:
        """Run the golden probe batch; raises on any divergence."""
        outputs, _ = self._execute(managed, self._probe_in, 1)
        if not np.array_equal(outputs, self._probe_out):
            raise ScrubMismatchError(
                f"slot {managed.label}: probe outputs diverge from the"
                " golden reference")

    # -- execution ----------------------------------------------------------

    def _execute(self, managed: ManagedSlot, batch: np.ndarray,
                 bucket: int) -> tuple[np.ndarray, float]:
        """One watchdogged kernel invocation of a ``bucket`` device
        batch carrying ``batch``'s rows, on a held slot.

        Returns ``(outputs, elapsed)`` where ``outputs`` has one row per
        row of ``batch`` and ``elapsed`` is the modeled device seconds
        the invocation took, injected hangs and slowdowns included (the
        watchdogged quantity).
        """
        count = batch.shape[0]
        managed.queue.enqueue_write_buffer(managed.in_buf, batch)
        managed.kernel.set_arg(3, bucket)
        elapsed = managed.queue.enqueue_task(
            managed.kernel, rows=count).device_seconds
        if elapsed > self.config.watchdog_s:
            with self._lock:
                self._actions["watchdog_trip", ""] += 1
            raise WatchdogTimeoutError(
                f"slot {managed.label}: invocation took {elapsed:.1f}s"
                f" (virtual), watchdog deadline is"
                f" {self.config.watchdog_s:.1f}s")
        outputs = managed.queue.enqueue_read_buffer(
            managed.out_buf, count * self._out_size) \
            .reshape(count, self._out_size)
        return outputs, elapsed

    def _invoke(self, managed: ManagedSlot, batch: np.ndarray,
                bucket: int, *, verify: bool) \
            -> tuple[np.ndarray, float]:
        with self._lock:
            managed.submissions += 1
            serial = managed.submissions
        outputs, elapsed = self._execute(managed, batch, bucket)
        every = self.config.scrub_every
        if verify or (every > 0 and serial % every == 0):
            self._scrub(managed, batch, outputs)
        return outputs, elapsed

    def _scrub(self, managed: ManagedSlot, batch: np.ndarray,
               outputs: np.ndarray) -> None:
        """Spot-check a held slot: weight digest + golden outputs.

        A mismatch repairs the slot immediately (re-load + rewrite) and
        raises :class:`ScrubMismatchError` so the tainted submission is
        retried; the repair means the slot is trustworthy again as soon
        as its breaker lets it back into rotation.
        """
        digest = hashlib.sha256(
            managed.w_buf.data[:self._packed.size].tobytes()).hexdigest()
        if digest != self._golden_digest:
            with self._lock:
                self._actions["scrub_catch", "digest"] += 1
            self._repair(managed)
            raise ScrubMismatchError(
                f"slot {managed.label}: weight buffer digest mismatch"
                " (SEU corruption); slot repaired")
        golden = self.golden.forward_batch(batch) \
            .reshape(outputs.shape)
        if not np.array_equal(golden, outputs):
            with self._lock:
                self._actions["scrub_catch", "golden"] += 1
            self._repair(managed)
            raise ScrubMismatchError(
                f"slot {managed.label}: outputs diverge from the golden"
                " reference; slot repaired")

    # -- elastic capacity ---------------------------------------------------

    def add_instance(self, instance) -> list[str]:
        """Attach every slot of a new instance and put it in rotation.

        The autoscaler's scale-up verb.  AFI load + weight rewrite
        happen outside the fleet lock (attach performs no kernel
        launches); the slots only become acquirable once appended.
        Returns the new slot labels.
        """
        with self._lock:
            ordinal = self._next_ordinal
            self._next_ordinal += 1
        attached = [
            self._attach(f"i{ordinal}.slot{slot.index}", instance, slot)
            for slot in instance.slots]
        with self._lock:
            self.instances.append(instance)
            self.slots.extend(attached)
        self._slot_freed.set()
        _log.info("instance %s joined the fleet: %d new slot(s)",
                  instance.instance_id, len(attached))
        return [m.label for m in attached]

    def drain_instance(self) -> str:
        """Remove the most recently added instance from rotation.

        The autoscaler's scale-down verb.  Idle slots detach
        immediately; busy slots finish their in-flight submission and
        are reaped on release (no work is ever aborted).  The last
        instance cannot be drained.  Returns the drained instance id.
        """
        with self._lock:
            if len(self.instances) <= 1:
                raise FleetError("cannot drain the last fleet instance")
            instance = self.instances.pop()
            for managed in self.slots:
                if managed.instance is instance:
                    managed.draining = True
            self._reap_drained_locked()
        _log.info("instance %s draining out of the fleet",
                  instance.instance_id)
        return instance.instance_id

    def _reap_drained_locked(self) -> None:
        """Drop idle draining slots from the rotation (lock held)."""
        keep = [s for s in self.slots if s.busy or not s.draining]
        if len(keep) != len(self.slots):
            self.slots[:] = keep
            self._cursor %= max(1, len(self.slots))

    # -- introspection ------------------------------------------------------

    def _snapshot_slots(self) -> "list[ManagedSlot]":
        """A point-in-time copy of the slot list (it resizes under the
        lock on ``add_instance``/``drain_instance``)."""
        with self._lock:
            return list(self.slots)

    def healthy_slot_count(self) -> int:
        return sum(1 for s in self._snapshot_slots()
                   if s.breaker.state != OPEN and not s.draining)

    def health(self) -> dict[str, SlotState]:
        return {s.label: s.health for s in self._snapshot_slots()}

    def stats(self) -> dict:
        """Deterministic snapshot for reports and manifests."""
        with self._lock:
            ledger = dict(self._actions)
            snapshot = list(self.slots)
            instances = len(self.instances)
        actions: Counter[str] = Counter()
        for (action, label), count in ledger.items():
            # a failed submission is a registry series, not an action
            if (action, label) != ("submission", "failed"):
                actions[action] += count
        return {
            "instances": instances,
            "slots": {s.label: s.snapshot() for s in snapshot},
            "actions": dict(sorted(actions.items())),
            "healthy_slots": sum(
                1 for s in snapshot
                if s.breaker.state != OPEN and not s.draining),
            "quarantined": sorted(
                s.label for s in snapshot
                if s.health is SlotState.QUARANTINED),
        }
