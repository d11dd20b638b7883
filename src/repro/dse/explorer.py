"""The greedy bottleneck-driven explorer.

Start from the sequential configuration (all degrees 1), then repeatedly
attack the pipeline bottleneck: double its in- or out-parallelism, keep the
move that improves the initiation interval most per DSP spent, and stop
when the bottleneck admits no move or the resource budget is exhausted.
This mirrors how the authors describe choosing configurations by hand
("given the available FPGA resources, different configurations are
explored to find the optimal tradeoff between resource consumption and
performance") and converges to a balanced pipeline.

Evaluation goes through :class:`repro.dse.evaluator.CachedEvaluator`
(content-keyed memoization — a move re-estimates only the PE it changed),
one candidate move at a time, each under its own ``dse.evaluate`` span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CondorError, DSEError
from repro.frontend.condor_format import CondorModel
from repro.hw.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hw.mapping import MappingConfig, default_mapping
from repro.hw.perf import AcceleratorPerformance
from repro.hw.resources import ResourceVector, device_for_board
from repro.dse.evaluator import CachedEvaluator, EvaluationCache
from repro.dse.frontier import ParetoFrontier
from repro.dse.space import parallelism_moves
from repro.obs import span
from repro.util.logging import get_logger

_log = get_logger("dse")


@dataclass(slots=True)
class DSEPoint:
    """One explored configuration."""

    mapping: MappingConfig
    ii_cycles: int
    resources: ResourceVector

    def dominates(self, other: "DSEPoint") -> bool:
        return (self.ii_cycles <= other.ii_cycles and
                self.resources.dsp <= other.resources.dsp and
                (self.ii_cycles < other.ii_cycles or
                 self.resources.dsp < other.resources.dsp))


@dataclass
class DSEResult:
    """The chosen configuration plus the explored frontier."""

    mapping: MappingConfig
    performance: AcceleratorPerformance
    resources: ResourceVector
    explored: list[DSEPoint] = field(default_factory=list)
    steps: int = 0
    #: Evaluation-cache hits/misses of this call only, also when the
    #: caller shares one cache across calls.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def pareto_frontier(self) -> list[DSEPoint]:
        return ParetoFrontier(self.explored).points()


def explore(model: CondorModel, *,
            mapping: MappingConfig | None = None,
            cal: Calibration = DEFAULT_CALIBRATION,
            max_steps: int = 64,
            cache: EvaluationCache | None = None,
            memoize: bool = True) -> DSEResult:
    """Run the greedy explorer for ``model``; returns the best mapping
    found under the calibration's DSP/BRAM budget fractions.

    ``cache`` shares memoized evaluations across calls for the same
    model and calibration.  ``memoize=False`` restores the
    evaluate-from-scratch behaviour — the baseline ``condor bench``
    reports DSE speedup against.
    """
    with span("dse.explore", network=model.network.name):
        evaluator = CachedEvaluator(model, cal, cache=cache,
                                    memoize=memoize)
        hits, misses = evaluator.cache.hits, evaluator.cache.misses
        result = _explore(model, mapping=mapping, cal=cal,
                          max_steps=max_steps, evaluator=evaluator)
        result.cache_hits = evaluator.cache.hits - hits
        result.cache_misses = evaluator.cache.misses - misses
        return result


def _explore(model: CondorModel, *,
             mapping: MappingConfig | None,
             cal: Calibration,
             max_steps: int,
             evaluator: CachedEvaluator) -> DSEResult:
    net = model.network
    device = device_for_board(model.board)
    budget = ResourceVector(
        lut=device.capacity.lut,
        ff=device.capacity.ff,
        dsp=device.capacity.dsp * cal.dse_dsp_budget_fraction,
        bram_18k=device.capacity.bram_18k * cal.dse_bram_budget_fraction,
    )
    current = mapping or default_mapping(net)
    baseline = evaluator.evaluate(current)
    perf, resources = baseline.performance, baseline.resources
    if not resources.fits_in(budget):
        raise DSEError(
            f"the sequential baseline configuration already exceeds the"
            f" budget on {model.board}: {resources}")
    explored = [DSEPoint(current, perf.ii_cycles, resources)]
    steps = 0

    def objective(p: AcceleratorPerformance) -> tuple[int, ...]:
        """Stage cycles sorted descending: lexicographic comparison
        reduces the initiation interval and breaks bottleneck ties (a
        move that lowers one of several tied bottleneck stages is
        progress even while II itself is unchanged)."""
        return tuple(sorted(p.stage_cycles, reverse=True))

    while steps < max_steps:
        steps += 1
        ii = perf.ii_cycles
        tied = [i for i, c in enumerate(perf.stage_cycles) if c == ii]
        moves: list[MappingConfig] = []
        for index in tied:
            moves.extend(parallelism_moves(net, current, current.pes[index],
                                           cal.max_ports))
        best = None  # (objective, dsp, mapping, perf, resources)
        for move in moves:
            with span("dse.evaluate"):
                try:
                    outcome = evaluator.evaluate(move)
                except CondorError:
                    # infeasible move (mapping/resource violation) —
                    # not a candidate
                    continue
            move_perf, move_res = outcome.performance, outcome.resources
            if not move_res.fits_in(budget):
                continue
            key = (objective(move_perf), move_res.dsp)
            if key[0] >= objective(perf):
                continue
            if best is None or key < best[:2]:
                best = (key[0], key[1], move, move_perf, move_res)
        if best is None:
            break
        _, _, current, perf, resources = best
        explored.append(DSEPoint(current, perf.ii_cycles, resources))
        _log.debug("step %d: II=%d DSP=%.0f", steps, perf.ii_cycles,
                   resources.dsp)

    final = evaluator.evaluate(current)
    return DSEResult(mapping=current, performance=final.performance,
                     resources=final.resources, explored=explored,
                     steps=steps)
