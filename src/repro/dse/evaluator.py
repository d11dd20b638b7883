"""Memoized evaluation of DSE design points.

The greedy explorer evaluates hundreds of neighbouring configurations, and
each evaluation used to rebuild and re-estimate every PE from scratch.  Two
observations make that cheap:

* A candidate move changes the parallelism of exactly **one** PE, so per-PE
  construction, resource estimation and cycle counting are content-keyed
  and shared across evaluations (``PEMapping`` and ``ProcessingElement``
  are frozen dataclasses, i.e. hashable values).
* Whole configurations recur (the chosen move is re-evaluated as the next
  step's baseline), so the full ``mapping fingerprint → (perf, resources)``
  result is cached too, including *negative* entries: a mapping that
  failed validation raises the same typed error again without re-running
  the builder.

Evaluation is serial: it is pure Python, so a thread pool only adds
hand-off cost (a warm-cache evaluation is a few dict lookups).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CondorError
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
_CACHE_HITS = REGISTRY.counter(
    "condor_dse_cache_hits_total",
    "Design-point evaluations answered from the evaluation cache")


def mapping_fingerprint(model: CondorModel, mapping: MappingConfig,
                        cal: Calibration) -> tuple:
    """Content key of one evaluation.

    Everything the estimate depends on: the PE mapping entries (frozen
    dataclasses — compared by value), the target board, the datapath
    precision, the clock, and the calibration constants.
    """
    return (tuple(mapping.pes), model.board, model.precision,
            model.frequency_hz, cal)


@dataclass
class EvaluatedPoint:
    """The outcome of evaluating one mapping configuration."""

    mapping: MappingConfig
    performance: AcceleratorPerformance
    resources: ResourceVector


@dataclass
class EvaluationCache:
    """Fingerprint-keyed results plus the shared per-PE sub-caches.

    ``errors`` holds negative entries: evaluating an infeasible mapping
    caches the typed :class:`~repro.errors.CondorError` so the explorer's
    feasibility filtering costs one dict lookup on revisit.  ``hits`` and
    ``misses`` are running totals over every evaluation that used the
    cache; :func:`~repro.dse.explore` reports the counts of one call.
    Not locked: the explorer evaluates serially.
    """

    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    #: (pe_map, precision) -> ProcessingElement
    pe_build: dict = field(default_factory=dict)
    #: ProcessingElement -> ResourceVector
    pe_resources: dict = field(default_factory=dict)
    #: ProcessingElement -> (cycles, latency, flops)
    pe_perf: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


class CachedEvaluator:
    """Evaluate mappings for one model under one calibration, memoized."""

    def __init__(self, model: CondorModel,
                 cal: Calibration = DEFAULT_CALIBRATION,
                 cache: EvaluationCache | None = None,
                 memoize: bool = True):
        self.model = model
        self.cal = cal
        self.cache = cache if cache is not None else EvaluationCache()
        #: ``memoize=False`` re-runs every build/estimate from scratch —
        #: the pre-cache behaviour ``condor bench`` measures speedup
        #: against; not useful otherwise.
        self.memoize = memoize

    def evaluate(self, mapping: MappingConfig) -> EvaluatedPoint:
        """Perf + resources for ``mapping``; raises the (possibly cached)
        :class:`~repro.errors.CondorError` for infeasible mappings."""
        cache = self.cache
        if not self.memoize:
            _POINTS.inc()
            cache.misses += 1
            acc = build_accelerator(self.model, mapping)
            perf = estimate_performance(acc, self.cal)
            estimate = estimate_accelerator(acc, self.cal)
            return EvaluatedPoint(mapping=mapping, performance=perf,
                                  resources=estimate.total)
        key = mapping_fingerprint(self.model, mapping, self.cal)
        cached = cache.results.get(key)
        if cached is None:
            cached = cache.errors.get(key)
        if cached is not None:
            cache.hits += 1
            _CACHE_HITS.inc()
            if isinstance(cached, CondorError):
                raise cached
            return cached
        cache.misses += 1
        _POINTS.inc()
        try:
            acc = build_accelerator(self.model, mapping,
                                    pe_cache=cache.pe_build)
            perf = estimate_performance(acc, self.cal,
                                        pe_cache=cache.pe_perf)
            estimate = estimate_accelerator(acc, self.cal,
                                            pe_cache=cache.pe_resources)
        except CondorError as exc:
            cache.errors[key] = exc
            raise
        point = EvaluatedPoint(mapping=mapping, performance=perf,
                               resources=estimate.total)
        cache.results[key] = point
        return point
