"""Seeded fault injection for chaos testing.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries that fire at
the named retryable boundaries (the *same* boundaries production code
runs through — see :mod:`repro.resilience.boundary`), so chaos runs
exercise the exact retry / breaker / degradation paths a real
infrastructure outage would:

``transient``
    raises :class:`~repro.errors.TransientError` for the first ``times``
    invocations of the boundary, then clears — survivable via retry;
``permanent``
    raises the boundary's native error type (``AFIError`` for the AFI
    service, ``HLSError`` for csynth, ...) on every invocation — the
    kind of failure retry cannot fix;
``slow``
    advances the virtual clock by ``delay_s`` before the call — latency
    weather that exercises breaker recovery windows;
``corrupt-payload``
    deterministically flips bytes in the payload a boundary transfers
    (S3 upload) for ``times`` invocations — caught by the upload
    integrity check and survivable via retry.

A second family of *device-level* kinds fires at the run-path
boundaries (``device.<instance>.slot<k>``, the simulated FPGA cards in
:mod:`repro.runtime.opencl`) instead of the build-path ones:

``seu-bitflip``
    flips bits in the loaded weight buffer of a programmed slot —
    *silent* corruption, caught only by the fleet's scrubbing;
``slot-crash``
    kills the card mid-invocation (``DeviceLostError``); the device
    stays dead until an AFI re-load reprograms it;
``kernel-hang``
    the kernel never returns — modeled as the invocation taking
    ``delay_s`` more device time, so the fleet watchdog trips;
``slow-device``
    like a hang but survivable latency weather (smaller ``delay_s``).

Hangs and slowdowns charge only the invocation they hit: the delay is
added to that task's device seconds, and no clock moves.

``permanent`` at a device boundary means a dead card every attempt —
re-loads do not revive it (whole-instance loss).

Everything is driven by a seeded RNG and per-spec counters, so a plan
with a fixed seed replays the exact same fault sequence.  A plan is
*stateful*: build a fresh one per run.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import fnmatch
import random
import zlib
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import (
    AFIError,
    CondorError,
    DeviceLostError,
    HLSError,
    LinkError,
    PackagingError,
    S3Error,
    TransientError,
)
from repro.obs import REGISTRY
from repro.resilience.clock import VirtualClock
from repro.util.logging import get_logger

__all__ = [
    "ALL_BOUNDARIES",
    "CLOUD_BOUNDARIES",
    "DEVICE_FAULT_KINDS",
    "DEVICE_PATTERN",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
]

_log = get_logger("resilience.faults")

_INJECTED = REGISTRY.counter(
    "condor_resilience_faults_injected_total",
    "Faults injected into boundaries, by boundary and kind")

#: Native error type per boundary — what a *permanent* fault raises, so
#: the caller sees exactly what the real subsystem would throw.
BOUNDARY_ERRORS: dict[str, type[CondorError]] = {
    "cloud.upload": S3Error,
    "cloud.create-fpga-image": AFIError,
    "cloud.wait-for-afi": AFIError,
    "toolchain.hls-csynth": HLSError,
    "toolchain.xocc-link": LinkError,
    "toolchain.package-xo": PackagingError,
}

ALL_BOUNDARIES: tuple[str, ...] = tuple(BOUNDARY_ERRORS)
CLOUD_BOUNDARIES: tuple[str, ...] = tuple(
    b for b in ALL_BOUNDARIES if b.startswith("cloud."))


class FaultKind(enum.Enum):
    TRANSIENT = "transient"
    PERMANENT = "permanent"
    SLOW = "slow"
    CORRUPT = "corrupt-payload"
    # device-level kinds (fire at device.* boundaries only)
    BITFLIP = "seu-bitflip"
    SLOT_CRASH = "slot-crash"
    KERNEL_HANG = "kernel-hang"
    SLOW_DEVICE = "slow-device"


#: Kinds that fire at the run-path ``device.*`` boundaries (plus
#: PERMANENT, which means a dead card there); :meth:`FaultPlan.on_attempt`
#: ignores these, :meth:`FaultPlan.on_device_attempt` ignores the rest.
DEVICE_FAULT_KINDS: frozenset[FaultKind] = frozenset({
    FaultKind.BITFLIP,
    FaultKind.SLOT_CRASH,
    FaultKind.KERNEL_HANG,
    FaultKind.SLOW_DEVICE,
})

#: The fnmatch pattern covering every simulated FPGA slot.
DEVICE_PATTERN = "device.*"


@dataclass
class FaultSpec:
    """One fault: where, what, and how often it fires."""

    boundary: str  # exact boundary name, or an fnmatch pattern ("cloud.*")
    kind: FaultKind
    #: Invocations the fault fires on (ignored for PERMANENT: always).
    times: int = 1
    #: Virtual latency added by SLOW faults.
    delay_s: float = 30.0
    message: str = ""

    def matches(self, boundary: str) -> bool:
        return fnmatch.fnmatchcase(boundary, self.boundary)

    def to_dict(self) -> dict:
        return {"boundary": self.boundary, "kind": self.kind.value,
                "times": self.times, "delay_s": self.delay_s}


class FaultPlan:
    """A seeded set of faults plus the injection bookkeeping."""

    def __init__(self, specs: Iterator[FaultSpec] | list[FaultSpec] = (),
                 seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self._rng = random.Random(
            seed * 0x1_0000_0000 + zlib.crc32(b"fault-payload"))
        self._remaining = [spec.times for spec in self.specs]
        #: (boundary, kind-value) -> injection count.
        self.injected: Counter[tuple[str, str]] = Counter()

    # -- the hooks run_boundary calls --------------------------------------

    def on_attempt(self, boundary: str, clock: VirtualClock) -> None:
        """Fire SLOW / TRANSIENT / PERMANENT faults for one attempt."""
        for index, spec in enumerate(self.specs):
            if spec.kind in DEVICE_FAULT_KINDS or \
                    not spec.matches(boundary):
                continue
            if spec.kind is FaultKind.SLOW and self._remaining[index] > 0:
                self._remaining[index] -= 1
                self._record(boundary, spec)
                clock.sleep(spec.delay_s)
            elif spec.kind is FaultKind.TRANSIENT and \
                    self._remaining[index] > 0:
                self._remaining[index] -= 1
                self._record(boundary, spec)
                raise TransientError(
                    spec.message or
                    f"injected transient fault at {boundary}")
            elif spec.kind is FaultKind.PERMANENT:
                self._record(boundary, spec)
                exc_type = BOUNDARY_ERRORS.get(boundary, CondorError)
                raise exc_type(
                    spec.message or
                    f"injected permanent fault at {boundary}")

    def on_device_attempt(self, boundary: str, device) -> float:
        """Fire device-level faults for one kernel invocation.

        ``boundary`` is the slot's fault boundary
        (``device.<instance>.slot<k>``); ``device`` is the
        :class:`~repro.runtime.opencl.SimDevice` being launched on, so
        crash faults can mark the card dead.  A ``PERMANENT`` spec at a
        device boundary means the card dies on *every* attempt — AFI
        re-loads revive it only until the next launch.

        Returns the virtual seconds ``SLOW_DEVICE`` and ``KERNEL_HANG``
        faults add to this invocation.  The delay belongs to the
        invocation alone: the caller charges it to the task's device
        time, where the fleet watchdog sees it, and no clock moves.
        """
        delay_s = 0.0
        for index, spec in enumerate(self.specs):
            if not spec.matches(boundary):
                continue
            if spec.kind in (FaultKind.SLOW_DEVICE,
                             FaultKind.KERNEL_HANG) and \
                    self._remaining[index] > 0:
                self._remaining[index] -= 1
                self._record(boundary, spec)
                delay_s += spec.delay_s
            elif spec.kind is FaultKind.SLOT_CRASH and \
                    self._remaining[index] > 0:
                self._remaining[index] -= 1
                self._record(boundary, spec)
                device.alive = False
                raise DeviceLostError(
                    spec.message or
                    f"injected slot crash at {boundary}")
            elif spec.kind is FaultKind.PERMANENT:
                self._record(boundary, spec)
                device.alive = False
                raise DeviceLostError(
                    spec.message or
                    f"injected permanent device loss at {boundary}")
        return delay_s

    def corrupt_device_weights(self, boundary: str, flat) -> int:
        """Apply any armed SEU fault to a loaded weight buffer in place.

        ``flat`` is the slot's float32 weight array (a
        :class:`~repro.runtime.opencl.Buffer` backing store); random
        bits of random words are flipped through a ``uint32`` view.
        Returns the number of words corrupted — silently: no error is
        raised and no health signal fires, exactly the failure mode the
        fleet's scrubbing exists to catch.
        """
        flipped = 0
        for index, spec in enumerate(self.specs):
            if spec.kind is not FaultKind.BITFLIP or \
                    not spec.matches(boundary) or \
                    self._remaining[index] <= 0 or flat.size == 0:
                continue
            self._remaining[index] -= 1
            self._record(boundary, spec)
            words = flat.view("uint32")
            count = min(max(1, words.size // 1024), 8)
            for pos in self._rng.sample(range(words.size), count):
                words[pos] ^= 1 << self._rng.randrange(31)
            flipped += count
        return flipped

    def corrupt(self, boundary: str, payload: bytes) -> bytes:
        """Apply any armed CORRUPT fault to a payload in transit."""
        for index, spec in enumerate(self.specs):
            if spec.kind is not FaultKind.CORRUPT or \
                    not spec.matches(boundary) or \
                    self._remaining[index] <= 0 or not payload:
                continue
            self._remaining[index] -= 1
            self._record(boundary, spec)
            mutated = bytearray(payload)
            flips = max(1, len(mutated) // 4096)
            for pos in self._rng.sample(range(len(mutated)),
                                        min(flips, len(mutated))):
                mutated[pos] ^= 0xFF
            return bytes(mutated)
        return payload

    def _record(self, boundary: str, spec: FaultSpec) -> None:
        self.injected[(boundary, spec.kind.value)] += 1
        _INJECTED.inc(boundary=boundary, kind=spec.kind.value)
        _log.info("fault injected at %s: %s", boundary, spec.kind.value)

    # -- reporting ----------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def stats(self) -> dict:
        by_kind: Counter[str] = Counter()
        by_boundary: Counter[str] = Counter()
        for (boundary, kind), count in self.injected.items():
            by_kind[kind] += count
            by_boundary[boundary] += count
        return {
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
            "injected_total": self.total_injected,
            "injected_by_kind": dict(sorted(by_kind.items())),
            "injected_by_boundary": dict(sorted(by_boundary.items())),
        }

    # -- generation ----------------------------------------------------------

    @classmethod
    def random(cls, seed: int,
               boundaries: tuple[str, ...] = ALL_BOUNDARIES, *,
               max_transient: int = 2,
               allow_permanent: bool = True,
               include_devices: bool = False) -> "FaultPlan":
        """A seeded chaos plan (what ``condor chaos`` runs).

        Transient/slow/corrupt faults land anywhere; permanent faults
        are confined to cloud boundaries, where the flow degrades to a
        partial run instead of dying.  ``max_transient`` stays below the
        default retry budget so transient weather remains survivable.
        ``include_devices`` adds run-path weather over the FPGA slots
        (``device.*``): recoverable SEU bit-flips, crashes, hangs and
        slowdowns — never a permanent device loss, so a healthy fleet
        must always fully recover.
        """
        rng = random.Random(
            seed * 0x1_0000_0000 + zlib.crc32(b"fault-plan"))
        specs: list[FaultSpec] = []
        for boundary in boundaries:
            roll = rng.random()
            if roll < 0.45:
                specs.append(FaultSpec(
                    boundary, FaultKind.TRANSIENT,
                    times=rng.randint(1, max(1, max_transient))))
            elif roll < 0.60:
                specs.append(FaultSpec(
                    boundary, FaultKind.SLOW,
                    delay_s=round(rng.uniform(5.0, 45.0), 1)))
            if boundary == "cloud.upload" and rng.random() < 0.35:
                specs.append(FaultSpec(boundary, FaultKind.CORRUPT))
        cloud = [b for b in boundaries if b in CLOUD_BOUNDARIES]
        if allow_permanent and cloud and rng.random() < 0.3:
            specs.append(FaultSpec(rng.choice(cloud),
                                   FaultKind.PERMANENT))
        if include_devices:
            if rng.random() < 0.5:
                specs.append(FaultSpec(DEVICE_PATTERN, FaultKind.BITFLIP))
            if rng.random() < 0.35:
                specs.append(FaultSpec(
                    DEVICE_PATTERN, FaultKind.KERNEL_HANG,
                    delay_s=round(rng.uniform(300.0, 900.0), 1)))
            if rng.random() < 0.5:
                specs.append(FaultSpec(
                    DEVICE_PATTERN, FaultKind.SLOW_DEVICE,
                    times=rng.randint(1, 2),
                    delay_s=round(rng.uniform(15.0, 50.0), 1)))
            if rng.random() < 0.35:
                specs.append(FaultSpec(DEVICE_PATTERN,
                                       FaultKind.SLOT_CRASH))
        return cls(specs, seed=seed)


_active_plan: contextvars.ContextVar[FaultPlan | None] = \
    contextvars.ContextVar("repro_resilience_fault_plan", default=None)


def active_plan() -> FaultPlan | None:
    """The fault plan installed by ``inject_faults``, if any."""
    return _active_plan.get()


@contextlib.contextmanager
def _activate(plan: FaultPlan) -> Iterator[FaultPlan]:
    token = _active_plan.set(plan)
    try:
        yield plan
    finally:
        _active_plan.reset(token)
