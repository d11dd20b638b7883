"""Per-slot health state for the fleet.

Health is *derived*, not stored: each managed slot owns a
:class:`~repro.resilience.breaker.CircuitBreaker`, built by its fleet
on the fleet's clock and shared with no other fleet, and the
three-level health state is a read of that breaker:

========== ====================================================
OK         breaker closed with no consecutive failures
SUSPECT    breaker closed but failing, or half-open (probing)
QUARANTINED breaker open — the slot gets no work until its
           recovery window elapses and a recovery probe passes
========== ====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.resilience.breaker import HALF_OPEN, OPEN, CircuitBreaker

__all__ = ["ManagedSlot", "SlotState"]


class SlotState(enum.Enum):
    OK = "ok"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"


@dataclass
class ManagedSlot:
    """One FPGA slot under fleet management.

    Bundles the cloud-side slot handle with the runtime objects the
    fleet drives it through (context, kernel, queue, buffers) and the
    health bookkeeping.  Only the owning
    :class:`~repro.fleet.manager.FleetManager` touches it.
    """

    label: str          # fleet-ordinal label, e.g. "i0.slot1" (stable
    #                     across runs, unlike raw instance ids)
    instance: Any       # F1Instance
    slot: Any           # FpgaSlot
    breaker: CircuitBreaker
    context: Any = None
    kernel: Any = None
    queue: Any = None
    in_buf: Any = None
    out_buf: Any = None
    w_buf: Any = None
    submissions: int = 0
    failures: int = 0
    reloads: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def health(self) -> SlotState:
        state = self.breaker.state
        if state == OPEN:
            return SlotState.QUARANTINED
        if state == HALF_OPEN or self.breaker.consecutive_failures > 0:
            return SlotState.SUSPECT
        return SlotState.OK

    def snapshot(self) -> dict:
        return {
            "health": self.health.value,
            "breaker": self.breaker.state,
            "opened_count": self.breaker.opened_count,
            "submissions": self.submissions,
            "failures": self.failures,
            "reloads": self.reloads,
        }
