"""Memoized DSE evaluation must change nothing but the cost.

The explorer's result — best mapping, explored-point count, step count —
must be identical across memoized and from-scratch runs; the cache is a
pure acceleration.
"""

import dataclasses

import pytest

from repro.dse import (
    CachedEvaluator,
    EvaluationCache,
    explore,
    mapping_fingerprint,
)
from repro.errors import MappingError
from repro.hw.mapping import default_mapping


def _bad_mapping(net):
    """A mapping that fails validation (in_parallel > input channels)."""
    mapping = default_mapping(net)
    bad_pe = dataclasses.replace(mapping.pes[0], in_parallel=10_000)
    return dataclasses.replace(mapping,
                               pes=[bad_pe] + list(mapping.pes[1:]))


@pytest.mark.parametrize("name", ["tc1", "lenet", "vgg16"])
def test_memoized_explore_matches_from_scratch(name, zoo_model):
    model = zoo_model(name)
    scratch = explore(model, memoize=False)
    fast = explore(model, cache=EvaluationCache())
    assert fast.mapping == scratch.mapping
    assert fast.performance.ii_cycles == scratch.performance.ii_cycles
    assert fast.steps == scratch.steps
    assert len(fast.explored) == len(scratch.explored)
    assert [p.mapping for p in fast.explored] == \
        [p.mapping for p in scratch.explored]
    assert fast.cache_misses <= scratch.cache_misses


def test_cache_counts_are_per_call(zoo_model):
    """A shared cache keeps running totals; each result reports only the
    hits and misses of its own call."""
    model = zoo_model("tc1")
    cache = EvaluationCache()
    counts = [(r.cache_hits, r.cache_misses)
              for r in (explore(model, cache=cache) for _ in range(3))]
    assert counts == [(1, 20), (21, 0), (21, 0)]
    assert (cache.hits, cache.misses) == (43, 20)


def test_result_cache_hits(zoo_model):
    model = zoo_model("tc1")
    evaluator = CachedEvaluator(model)
    mapping = default_mapping(model.network)
    first = evaluator.evaluate(mapping)
    assert (evaluator.cache.hits, evaluator.cache.misses) == (0, 1)
    again = evaluator.evaluate(mapping)
    assert again is first  # the cached object itself
    assert (evaluator.cache.hits, evaluator.cache.misses) == (1, 1)
    # an equal-by-value mapping built independently hits too
    clone = default_mapping(model.network)
    assert evaluator.evaluate(clone) is first
    assert evaluator.cache.hits == 2


def test_negative_caching(zoo_model):
    model = zoo_model("tc1")
    evaluator = CachedEvaluator(model)
    bad = _bad_mapping(model.network)
    with pytest.raises(MappingError) as first:
        evaluator.evaluate(bad)
    assert evaluator.cache.misses == 1
    with pytest.raises(MappingError) as second:
        evaluator.evaluate(bad)
    assert second.value is first.value  # replayed, not recomputed
    assert evaluator.cache.hits == 1


def test_memoize_false_never_caches(zoo_model):
    model = zoo_model("tc1")
    evaluator = CachedEvaluator(model, memoize=False)
    mapping = default_mapping(model.network)
    first = evaluator.evaluate(mapping)
    second = evaluator.evaluate(mapping)
    assert first is not second
    assert evaluator.cache.hits == 0
    assert evaluator.cache.misses == 2
    assert not evaluator.cache.results


def test_fingerprint_is_content_keyed(zoo_model):
    model = zoo_model("tc1")
    mapping = default_mapping(model.network)
    clone = default_mapping(model.network)
    cal = CachedEvaluator(model).cal
    assert mapping_fingerprint(model, mapping, cal) == \
        mapping_fingerprint(model, clone, cal)
    faster = dataclasses.replace(model, frequency_hz=2 * model.frequency_hz)
    assert mapping_fingerprint(faster, mapping, cal) != \
        mapping_fingerprint(model, mapping, cal)


def test_shared_cache_replays_feasible_and_infeasible(zoo_model):
    """Feasible and infeasible candidates through one shared cache: a
    second evaluator over the same cache answers every candidate from
    it, with the same outcome as a cache of its own."""
    model = zoo_model("tc1")
    base = default_mapping(model.network)
    candidates = [base]
    for i in range(len(base.pes)):
        for factor in (2, 4):
            pes = list(base.pes)
            pes[i] = dataclasses.replace(
                pes[i], out_parallel=pes[i].out_parallel * factor)
            candidates.append(dataclasses.replace(base, pes=pes))
    candidates.append(_bad_mapping(model.network))

    def outcomes(evaluator):
        out = []
        for mapping in candidates:
            try:
                out.append(evaluator.evaluate(mapping).performance)
            except MappingError as exc:
                out.append(exc)
        return out

    expected = outcomes(CachedEvaluator(model))
    cache = EvaluationCache()
    first = outcomes(CachedEvaluator(model, cache=cache))
    misses = cache.misses
    again = outcomes(CachedEvaluator(model, cache=cache))
    assert [type(o) for o in first] == [type(o) for o in expected]
    assert [o for o in first if not isinstance(o, MappingError)] == \
        [o for o in expected if not isinstance(o, MappingError)]
    assert any(isinstance(o, MappingError) for o in first)
    assert all(a is b for a, b in zip(again, first))
    assert cache.misses == misses  # the second pass is all hits
    assert cache.hits + cache.misses == 2 * len(candidates)


def test_explore_span_tree(zoo_model):
    from repro.obs import recording

    with recording() as rec:
        explore(zoo_model("tc1"), cache=EvaluationCache())
    (root,) = rec.find("dse.explore")
    assert root.attrs["network"] == "tc1"
    evals = rec.find("dse.evaluate")
    assert evals
    assert all(sp.parent_id == root.span_id for sp in evals)
