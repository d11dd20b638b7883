"""The incremental Pareto frontier vs the brute-force O(n²) oracle."""

import random

import pytest

from repro.dse.explorer import DSEPoint, explore
from repro.dse.frontier import (
    ParetoFrontier,
    _dominates,
    brute_force_frontier,
)
from repro.hw.mapping import MappingConfig
from repro.hw.resources import ResourceVector


def _point(ii: int, dsp: float) -> DSEPoint:
    return DSEPoint(mapping=MappingConfig(), ii_cycles=ii,
                    resources=ResourceVector(dsp=dsp))


def _as_pairs(points):
    return [(p.ii_cycles, p.resources.dsp) for p in points]


class TestParetoFrontier:
    def test_empty(self):
        assert ParetoFrontier().points() == []
        assert brute_force_frontier([]) == []

    def test_single_point(self):
        frontier = ParetoFrontier([_point(10, 5)])
        assert _as_pairs(frontier.points()) == [(10, 5.0)]

    def test_dominated_point_rejected(self):
        frontier = ParetoFrontier()
        assert frontier.add(_point(10, 5))
        assert not frontier.add(_point(12, 6))
        assert _as_pairs(frontier.points()) == [(10, 5.0)]

    def test_dominating_point_evicts(self):
        frontier = ParetoFrontier([_point(10, 5), _point(8, 7)])
        assert frontier.add(_point(8, 5))
        assert _as_pairs(frontier.points()) == [(8, 5.0)]

    def test_duplicate_objective_keeps_first(self):
        first, second = _point(10, 5), _point(10, 5)
        frontier = ParetoFrontier([first])
        assert not frontier.add(second)
        assert frontier.points() == [first]

    def test_incomparable_points_coexist(self):
        frontier = ParetoFrontier([_point(10, 5), _point(8, 7), _point(6, 9)])
        assert len(frontier) == 3

    def test_matches_brute_force_on_random_traces(self):
        rng = random.Random(1234)
        for trial in range(50):
            trace = [_point(rng.randint(1, 30), float(rng.randint(1, 30)))
                     for _ in range(rng.randint(1, 60))]
            incremental = ParetoFrontier(trace).points()
            assert _as_pairs(incremental) == \
                _as_pairs(brute_force_frontier(trace)), f"trial {trial}"

    def test_rejection_is_permanent_and_correct(self):
        # q dominates p; later r evicts q.  Transitivity means r also
        # dominates p, so rejecting p permanently matches brute force.
        trace = [_point(5, 5), _point(6, 5), _point(5, 4)]
        assert _as_pairs(ParetoFrontier(trace).points()) == \
            _as_pairs(brute_force_frontier(trace)) == [(5, 4.0)]


@pytest.mark.parametrize("model_name", ["tc1", "lenet"])
def test_explorer_trace_matches_brute_force(model_name, zoo_model):
    result = explore(zoo_model(model_name))
    assert len(result.explored) >= 1
    assert _as_pairs(result.pareto_frontier) == \
        _as_pairs(brute_force_frontier(result.explored))
    # the frontier is non-dominated and sorted by II
    frontier = result.pareto_frontier
    assert frontier == sorted(frontier, key=lambda p: p.ii_cycles)
    for p in frontier:
        assert not any(_dominates(q, p) for q in result.explored)
