"""Hardware generation: the spatial dataflow accelerator (paper §3.2).

Sub-modules:

* :mod:`repro.hw.resources` — FPGA device catalog and resource vectors;
* :mod:`repro.hw.calibration` — model constants (fitted once, see DESIGN.md);
* :mod:`repro.hw.components` — PEs, filters, FIFOs, datamover descriptions;
* :mod:`repro.hw.partitioning` — non-uniform memory partitioning [28];
* :mod:`repro.hw.mapping` — layer clustering and parallelism configuration;
* :mod:`repro.hw.accelerator` — the full accelerator graph builder;
* :mod:`repro.hw.estimate` — resource estimation;
* :mod:`repro.hw.perf` — performance (cycles, GFLOPS) and power models.
"""

from repro.hw.resources import DEVICES, Device, ResourceVector, device_for_board
from repro.hw.components import (
    Accelerator,
    DataMover,
    Fifo,
    FilterNode,
    ProcessingElement,
    StreamEdge,
)
from repro.hw.partitioning import FilterChainSpec, partition_window_accesses
from repro.hw.mapping import MappingConfig, PEMapping, default_mapping, mapping_from_model
from repro.hw.accelerator import build_accelerator
from repro.hw.estimate import estimate_accelerator, estimate_pe
from repro.hw.perf import (
    AcceleratorPerformance,
    estimate_performance,
    estimate_power_watts,
)

__all__ = [
    "DEVICES",
    "Device",
    "ResourceVector",
    "device_for_board",
    "Accelerator",
    "DataMover",
    "Fifo",
    "FilterNode",
    "ProcessingElement",
    "StreamEdge",
    "FilterChainSpec",
    "partition_window_accesses",
    "MappingConfig",
    "PEMapping",
    "default_mapping",
    "mapping_from_model",
    "build_accelerator",
    "estimate_accelerator",
    "estimate_pe",
    "AcceleratorPerformance",
    "estimate_performance",
    "estimate_power_watts",
]
