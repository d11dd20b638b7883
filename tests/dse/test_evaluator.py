"""Per-PE memoized DSE evaluation must change nothing but the cost.

Every point the explorer reports — and the path it takes to the best
mapping — must equal what the uncached reference (``build_accelerator``,
``estimate_performance`` and ``estimate_accelerator`` with no
``pe_cache``) gives; the per-PE caches are a pure acceleration.
"""

import dataclasses

import pytest

from repro.dse import CachedEvaluator, explore
from repro.dse.evaluator import EvaluatedPoint
from repro.errors import MappingError
from repro.hw.accelerator import build_accelerator
from repro.hw.estimate import estimate_accelerator
from repro.hw.mapping import default_mapping
from repro.hw.perf import estimate_performance


def _bad_mapping(net):
    """A mapping that fails validation (in_parallel > input channels)."""
    mapping = default_mapping(net)
    bad_pe = dataclasses.replace(mapping.pes[0], in_parallel=10_000)
    return dataclasses.replace(mapping,
                               pes=[bad_pe] + list(mapping.pes[1:]))


def _reference(model, mapping):
    """Perf + resources of ``mapping``, built and estimated from scratch."""
    acc = build_accelerator(model, mapping)
    return (estimate_performance(acc),
            estimate_accelerator(acc).total)


def _perf_fields(perf):
    return (perf.stage_cycles, perf.stage_latency, perf.flops_per_image,
            perf.config_cycles, perf.ddr_cycles, perf.ii_cycles)


@pytest.mark.parametrize("name", ["tc1", "lenet", "vgg16"])
def test_memoized_explore_matches_from_scratch(name, zoo_model,
                                               monkeypatch):
    model = zoo_model(name)
    fast = explore(model)
    for point in fast.explored:
        perf, resources = _reference(model, point.mapping)
        assert point.ii_cycles == perf.ii_cycles
        assert point.resources == resources
    perf, resources = _reference(model, fast.mapping)
    assert _perf_fields(fast.performance) == _perf_fields(perf)
    assert fast.resources == resources

    # the same search with every evaluation from scratch takes the same
    # path to the same mapping
    def from_scratch(self, mapping):
        perf, resources = _reference(self.model, mapping)
        return EvaluatedPoint(mapping=mapping, performance=perf,
                              resources=resources)

    monkeypatch.setattr(CachedEvaluator, "evaluate", from_scratch)
    scratch = explore(model)
    assert fast.mapping == scratch.mapping
    assert fast.steps == scratch.steps
    assert [(p.mapping, p.ii_cycles, p.resources)
            for p in fast.explored] == \
        [(p.mapping, p.ii_cycles, p.resources) for p in scratch.explored]


def test_cache_counts_are_pe_builds(zoo_model, monkeypatch):
    """``cache_misses`` is the number of distinct PEs one call built,
    ``cache_hits`` the PE builds it reused; each call starts cold."""
    import repro.hw.accelerator as accelerator

    built = []
    real_build_pe = accelerator.build_pe

    def counting_build_pe(net, pe_map, precision):
        built.append((pe_map, precision))
        return real_build_pe(net, pe_map, precision)

    monkeypatch.setattr(accelerator, "build_pe", counting_build_pe)
    model = zoo_model("tc1")
    first = explore(model)
    assert first.cache_misses == len(built) == len(set(built))
    assert first.cache_hits > 0
    second = explore(model)
    assert (second.cache_hits, second.cache_misses) == \
        (first.cache_hits, first.cache_misses)

    # an infeasible mapping raises its typed error and builds no PE
    evaluator = CachedEvaluator(model)
    with pytest.raises(MappingError):
        evaluator.evaluate(_bad_mapping(model.network))
    assert (evaluator.hits, evaluator.misses) == (0, 0)


def test_explore_span_tree(zoo_model):
    from repro.obs import recording

    with recording() as rec:
        explore(zoo_model("tc1"))
    (root,) = rec.find("dse.explore")
    assert root.attrs["network"] == "tc1"
    evals = rec.find("dse.evaluate")
    assert evals
    assert all(sp.parent_id == root.span_id for sp in evals)
