"""Per-PE memoized evaluation of DSE design points.

The greedy explorer evaluates hundreds of neighbouring configurations.  A
candidate move changes the parallelism of exactly **one** PE, so per-PE
construction, resource estimation and cycle counting are content-keyed
and shared across the evaluations of one explorer call
(``PEMapping`` and ``ProcessingElement`` are frozen dataclasses, i.e.
hashable values): every PE but the one a move changed is a cache hit.

Evaluation is serial: it is pure Python, so a thread pool only adds
hand-off cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.condor_format import CondorModel
from repro.hw.accelerator import build_accelerator
from repro.hw.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hw.estimate import estimate_accelerator
from repro.hw.mapping import MappingConfig
from repro.hw.perf import AcceleratorPerformance, estimate_performance
from repro.hw.resources import ResourceVector
from repro.obs import REGISTRY

_POINTS = REGISTRY.counter(
    "condor_dse_points_evaluated_total",
    "Design points evaluated by the explorer")


@dataclass
class EvaluatedPoint:
    """The outcome of evaluating one mapping configuration."""

    mapping: MappingConfig
    performance: AcceleratorPerformance
    resources: ResourceVector


class CachedEvaluator:
    """Evaluate mappings for one model under one calibration, reusing
    the PEs, PE cycle counts and PE resource estimates of earlier
    evaluations.

    ``hits`` counts PE builds answered from :attr:`pe_build`;
    ``misses`` is the number of distinct PEs built.
    """

    def __init__(self, model: CondorModel,
                 cal: Calibration = DEFAULT_CALIBRATION):
        self.model = model
        self.cal = cal
        #: (pe_map, precision) -> ProcessingElement
        self.pe_build: dict = {}
        #: ProcessingElement -> ResourceVector
        self.pe_resources: dict = {}
        #: ProcessingElement -> (cycles, latency, flops)
        self.pe_perf: dict = {}
        self.hits = 0

    @property
    def misses(self) -> int:
        return len(self.pe_build)

    def evaluate(self, mapping: MappingConfig) -> EvaluatedPoint:
        """Perf + resources for ``mapping``; raises the typed
        :class:`~repro.errors.CondorError` for infeasible mappings."""
        _POINTS.inc()
        built = len(self.pe_build)
        acc = build_accelerator(self.model, mapping,
                                pe_cache=self.pe_build)
        self.hits += len(mapping.pes) - (len(self.pe_build) - built)
        perf = estimate_performance(acc, self.cal, pe_cache=self.pe_perf)
        estimate = estimate_accelerator(acc, self.cal,
                                        pe_cache=self.pe_resources)
        return EvaluatedPoint(mapping=mapping, performance=perf,
                              resources=estimate.total)
