"""Design-space exploration (flow step 2).

The paper leaves this step manual ("this phase is still not automated...
in the future it will be performed automatically relying on resource
consumption and performance models"); this package implements that future
work on top of :mod:`repro.hw.estimate` and :mod:`repro.hw.perf`.
"""

from repro.dse.evaluator import (
    CachedEvaluator,
    EvaluationCache,
    mapping_fingerprint,
)
from repro.dse.explorer import DSEResult, explore
from repro.dse.frontier import ParetoFrontier, brute_force_frontier
from repro.dse.space import fusion_candidates, parallelism_moves

__all__ = ["CachedEvaluator", "DSEResult", "EvaluationCache",
           "ParetoFrontier", "brute_force_frontier", "explore",
           "fusion_candidates", "mapping_fingerprint", "parallelism_moves"]
