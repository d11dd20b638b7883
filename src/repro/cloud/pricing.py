"""F1 cost modelling.

The paper's cloud argument is economic: FPGAs' "prohibitive cost cannot
always be assumed" to be payable up front, while F1 instances rent by the
hour.  This module turns an accelerator's modeled throughput into
dollars-per-inference figures across the F1 instance family, and computes
the break-even point against buying a board outright — the numbers a
practitioner deciding between §3.1.1's deployment options actually needs.

Rates are the published 2018 us-east-1 on-demand prices (the paper's
period); they are inputs, not truths — pass your own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.f1 import F1_INSTANCE_TYPES
from repro.errors import CloudError
from repro.hw.perf import AcceleratorPerformance
from repro.util.tables import TextTable

#: On-demand $/hour, us-east-1, early 2018.
F1_HOURLY_USD: dict[str, float] = {
    "f1.2xlarge": 1.65,
    "f1.4xlarge": 3.30,
    "f1.16xlarge": 13.20,
}

#: Rough 2018 street price of a VU9P development board (VCU1525), USD.
ON_PREMISE_BOARD_USD = 6_995.0


@dataclass(frozen=True)
class CostEstimate:
    """Cost of running one accelerator on one instance type."""

    instance_type: str
    slots: int
    hourly_usd: float
    images_per_second: float

    @property
    def aggregate_images_per_second(self) -> float:
        """All FPGA slots running the same AFI."""
        return self.images_per_second * self.slots

    @property
    def usd_per_million_images(self) -> float:
        seconds = 1e6 / self.aggregate_images_per_second
        return seconds / 3600.0 * self.hourly_usd


def estimate_costs(perf: AcceleratorPerformance,
                   *, batch: int | None = None,
                   rates: dict[str, float] | None = None) \
        -> list[CostEstimate]:
    """Cost table across the F1 family for one accelerator."""
    rates = rates or F1_HOURLY_USD
    throughput = perf.throughput_images_per_s(batch)
    estimates = []
    for instance_type, slots in sorted(F1_INSTANCE_TYPES.items()):
        if instance_type not in rates:
            raise CloudError(f"no rate for {instance_type!r}")
        estimates.append(CostEstimate(
            instance_type=instance_type,
            slots=slots,
            hourly_usd=rates[instance_type],
            images_per_second=throughput,
        ))
    return estimates


def break_even_hours(instance_type: str = "f1.2xlarge",
                     *, board_usd: float = ON_PREMISE_BOARD_USD,
                     rates: dict[str, float] | None = None) -> float:
    """Rental hours after which buying the board would have been cheaper
    (ignoring power/hosting — i.e. a lower bound on the true break-even)."""
    rates = rates or F1_HOURLY_USD
    try:
        hourly = rates[instance_type]
    except KeyError:
        raise CloudError(f"no rate for {instance_type!r}") from None
    if hourly <= 0:
        raise CloudError("hourly rate must be positive")
    return board_usd / hourly


def render_cost_table(estimates: list[CostEstimate]) -> str:
    table = TextTable(["instance", "slots", "$/hour", "images/s (aggr.)",
                       "$/1M images"], float_format="{:.2f}")
    for est in estimates:
        table.add_row([est.instance_type, est.slots, est.hourly_usd,
                       est.aggregate_images_per_second,
                       est.usd_per_million_images])
    return table.render()
