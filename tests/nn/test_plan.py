"""Execution plans: bit-identical replay, the engine memo and its
weight-mutation rebind, the plan ledger, dtype keying, batch-size
invariance, and parity with the unplanned oracle.

Every equivalence assertion here is ``np.array_equal`` — plans replay
the exact arithmetic of the unplanned kernels (gathers are pure data
movement, max is an exact reduction, the GEMMs see the same operands),
so tolerance would only hide a broken plan.
"""

import numpy as np
import pytest

import repro.nn.functional as F
from repro.errors import ShapeError
from repro.frontend.weights import WeightStore
from repro.ir.layers import (
    Activation,
    ActivationLayer,
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    PoolLayer,
    PoolOp,
    SoftmaxLayer,
)
from repro.ir.network import chain
from repro.nn.engine import ReferenceEngine, run_layer
from repro.nn.plan import (
    ARENA_ROWS,
    PlanLedger,
    compile_pass,
    compile_plan,
    default_plan_cache,
)
from repro.quant import QuantizedEngine, QuantScheme

_BATCH = {"tc1": 5, "lenet": 4, "cifar10": 3, "vgg16": 2}


def _images(net, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch,) + net.input_shape().as_tuple()) \
        .astype(np.float32)


def _engines(net, weights):
    """A planned engine and the unplanned oracle."""
    planned = ReferenceEngine(net, weights, use_plans=True)
    oracle = ReferenceEngine(net, weights, use_plans=False)
    return planned, oracle


# -- equivalence across the zoo ----------------------------------------------


@pytest.mark.parametrize("name", ["tc1", "lenet", "cifar10", "vgg16"])
def test_planned_forward_bit_identical(name, zoo_model, zoo_weights):
    net = zoo_model(name).network
    planned, oracle = _engines(net, zoo_weights(name))
    images = _images(net, _BATCH[name])
    for image in images:  # first pass compiles, later passes replay
        expected = oracle.forward(image)
        got = planned.forward(image)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", ["tc1", "lenet", "cifar10", "vgg16"])
def test_planned_run_batch_bit_identical(name, zoo_model, zoo_weights):
    net = zoo_model(name).network
    planned, oracle = _engines(net, zoo_weights(name))
    images = _images(net, _BATCH[name], seed=1)
    expected = oracle.run_batch(images)
    assert np.array_equal(planned.run_batch(images), expected)
    # warm replay (plans + batch scratch already exist) stays identical
    assert np.array_equal(planned.run_batch(images), expected)


def test_replay_does_not_corrupt_previous_output(zoo_model, zoo_weights):
    """Plan scratch is reused across calls; the engine must copy the
    final output so an earlier result survives a later forward pass."""
    net = zoo_model("lenet").network
    planned, oracle = _engines(net, zoo_weights("lenet"))
    images = _images(net, 2, seed=2)
    first = planned.forward(images[0])
    expected_first = first.copy()
    planned.forward(images[1])  # would overwrite shared scratch
    assert np.array_equal(first, expected_first)
    assert np.array_equal(first, oracle.forward(images[0]))


def test_run_and_predict_share_batched_path(zoo_model, zoo_weights):
    net = zoo_model("lenet").network
    planned, oracle = _engines(net, zoo_weights("lenet"))
    image = _images(net, 1, seed=3)[0]
    expected = oracle.forward(image)
    assert np.array_equal(planned.forward(image), expected)
    assert planned.predict(image) == int(np.argmax(expected))


def test_planned_path_rejects_wrong_shape(zoo_model, zoo_weights):
    net = zoo_model("tc1").network
    planned, _ = _engines(net, zoo_weights("tc1"))
    with pytest.raises(ShapeError):
        planned.forward(np.zeros((1, 5, 5), dtype=np.float32))


# -- the functional gather kernels -------------------------------------------


def test_im2col_index_map_matches_im2col():
    rng = np.random.default_rng(0)
    for in_shape, kernel, stride, pad in [
        ((3, 8, 8), (3, 3), (1, 1), (0, 0)),
        ((2, 9, 7), (2, 4), (2, 1), (1, 2)),
        ((1, 5, 5), (5, 5), (1, 1), (0, 0)),
    ]:
        x = rng.normal(size=in_shape).astype(np.float32)
        idx = F.im2col_index_map(in_shape, kernel, stride, pad)
        padded = np.pad(x, ((0, 0), (pad[0], pad[0]), (pad[1], pad[1])))
        got = padded.reshape(-1).take(idx)
        assert np.array_equal(got, F.im2col(x[None], kernel, stride,
                                            pad)[0])


def test_index_map_rejects_oversized_window():
    with pytest.raises(ShapeError):
        F.im2col_index_map((1, 3, 3), (5, 5))
    with pytest.raises(ShapeError):
        compile_plan(PoolLayer("pool", kernel=5, stride=1,
                               ceil_mode=False), (1, 3, 3), WeightStore())


# -- compiling and counting ---------------------------------------------------


def _conv_setup(f=2, c=1, hw=6, k=3):
    layer = ConvLayer(name="conv", num_output=f, kernel=(k, k))
    store = WeightStore()
    rng = np.random.default_rng(5)
    store.set("conv", "weights",
              rng.normal(size=(f, c, k, k)).astype(np.float32))
    store.set("conv", "bias", rng.normal(size=(f,)).astype(np.float32))
    return layer, store, (c, hw, hw)


def test_lookup_hits_and_misses(zoo_model, zoo_weights):
    """The ledger counts every layer of a cold pass as a miss and every
    layer of a warm (memoized) pass as a hit."""
    net = zoo_model("tc1").network
    engine = ReferenceEngine(net, zoo_weights("tc1"), use_plans=True)
    images = _images(net, 2, seed=11)
    before = default_plan_cache().stats()
    assert set(before) == {"hits", "misses"}
    engine.run_batch(images)
    cold = default_plan_cache().stats()
    assert cold["misses"] - before["misses"] == len(net.layers)
    assert cold["hits"] == before["hits"]
    engine.run_batch(images)
    warm = default_plan_cache().stats()
    assert warm["misses"] == cold["misses"]
    assert warm["hits"] - cold["hits"] == len(net.layers)


def test_plan_stats_shape():
    """A ledger's stats are its two counts, starting at zero, and each
    call returns a copy the caller may not write through."""
    ledger = PlanLedger()
    assert ledger.stats() == {"hits": 0, "misses": 0}
    ledger.record_miss()
    ledger.record_miss()
    ledger.record_hit(5)
    stats = ledger.stats()
    assert stats == {"hits": 5, "misses": 2}
    assert all(type(v) is int for v in stats.values())
    stats["hits"] = 0
    assert ledger.stats()["hits"] == 5
    assert isinstance(default_plan_cache(), PlanLedger)


def test_weight_mutation_invalidates():
    layer, store, in_shape = _conv_setup()
    x = np.random.default_rng(6).normal(size=(1,) + in_shape) \
        .astype(np.float32)
    plan = compile_plan(layer, in_shape, store)
    before = plan.run_batch(x).copy()
    store.set("conv", "weights",
              2.0 * store.get("conv", "weights"))
    # a plan packs its weights when compiled: it keeps the old blobs
    assert np.array_equal(plan.run_batch(x), before)
    after = compile_plan(layer, in_shape, store).run_batch(x)
    expected = F.conv2d(x, store.get("conv", "weights"),
                        store.get("conv", "bias"))
    assert np.array_equal(after, expected)
    assert not np.array_equal(after, before)


def test_engine_sees_weight_mutation(zoo_model, zoo_weights):
    """The per-engine memo re-checks the weight version on every pass."""
    net = zoo_model("tc1").network
    weights = WeightStore(
        {layer: dict(zoo_weights("tc1").blobs(layer))
         for layer in zoo_weights("tc1").layers()})
    planned, _ = _engines(net, weights)
    image = _images(net, 1, seed=7)[0]
    planned.forward(image)  # compile against the original weights
    name = weights.layers()[0]
    for blob, array in weights.blobs(name).items():
        weights.set(name, blob, array * 3.0)
    fresh_oracle = ReferenceEngine(net, weights, use_plans=False)
    assert np.array_equal(planned.forward(image),
                          fresh_oracle.forward(image))


def test_weight_set_rebinds_the_pass(zoo_model, zoo_weights):
    """``WeightStore.set`` bumps the store generation: the next pass
    recompiles the whole network and rebinds every batch size it runs."""
    net = zoo_model("tc1").network
    weights = WeightStore(
        {layer: dict(zoo_weights("tc1").blobs(layer))
         for layer in zoo_weights("tc1").layers()})
    planned, _ = _engines(net, weights)
    images = _images(net, 3, seed=15)
    for n in (1, 3):
        planned.run_batch(images[:n])
    misses = default_plan_cache().stats()["misses"]
    generation = weights.generation
    weights.set("conv2", "bias", weights.get("conv2", "bias") - 1.0)
    assert weights.generation == generation + 1
    fresh_oracle = ReferenceEngine(net, weights, use_plans=False)
    for n in (1, 3):
        assert np.array_equal(planned.run_batch(images[:n]),
                              fresh_oracle.run_batch(images[:n])), n
    assert default_plan_cache().stats()["misses"] == \
        misses + len(net.layers)


def test_traced_pass_spans_one_layer_span_per_stage(zoo_model,
                                                     zoo_weights):
    """With a recorder active the pass runs stage by stage, one
    ``engine.layer`` span per stage named after its layers, and gives
    the untraced bits."""
    from repro.obs import recording

    net = zoo_model("tc1").network
    planned, oracle = _engines(net, zoo_weights("tc1"))
    images = _images(net, 3, seed=16)
    untraced = planned.run_batch(images)
    with recording() as rec:
        traced = planned.run_batch(images)
    assert [s.attrs["layer"] for s in rec.spans
            if s.name == "engine.layer"] == \
        ["data", "conv1+pool1", "conv2+pool2", "fc", "prob"]
    assert np.array_equal(traced, untraced)
    assert np.array_equal(traced, oracle.run_batch(images))


def test_dtype_keys_separate_plans():
    layer, store, in_shape = _conv_setup()
    p32 = compile_plan(layer, in_shape, store, np.float32)
    p64 = compile_plan(layer, in_shape, store, np.float64)
    assert (p32.dtype, p64.dtype) == (np.float32, np.float64)
    x = np.random.default_rng(8).normal(size=(1,) + in_shape)
    out64 = p64.run_batch(x.astype(np.float64))
    assert out64.dtype == np.float64
    out32 = p32.run_batch(x.astype(np.float32))
    assert out32.dtype == np.float32


def test_pass_chains_each_producers_dtype():
    """A float16 pass: the conv outputs float32 (its weights are), and
    every later plan is compiled for float32, so the pass equals the
    oracle layer by layer with no silent cast into float16 scratch."""
    in_shape = (2, 10, 10)
    net = chain("f16", in_shape, [
        ConvLayer("conv", num_output=3, kernel=3),
        PoolLayer("pool", kernel=2),
        ActivationLayer("act", kind=Activation.SIGMOID),
        PoolLayer("avg", op=PoolOp.AVG, kernel=2),
        FlattenLayer("flat"),
        FullyConnectedLayer("fc", num_output=4),
        SoftmaxLayer("prob")])
    rng = np.random.default_rng(13)
    store = WeightStore()
    for layer in net.layers:
        for blob, shape in layer.weight_shapes(net.input_shape(layer)) \
                .items():
            store.set(layer.name, blob,
                      rng.normal(size=shape).astype(np.float32))
    compiled = compile_pass(net.layers, in_shape, np.dtype(np.float16),
                            store)
    # data, conv read float16; pool .. prob read float32
    assert [p.dtype.name for p in compiled.plans] == \
        ["float16"] * 2 + ["float32"] * 6
    x = rng.normal(size=(3,) + in_shape).astype(np.float16)
    want = x
    for layer in net.layers:
        want = run_layer(layer, store, want)
    got = compiled.run(x)
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got, want)


def test_oracle_plans_describe_their_kernel_output():
    for layer, in_shape, dtype in [
            (PoolLayer("avg", op=PoolOp.AVG, kernel=3, stride=2),
             (2, 8, 8), np.float32),
            (ActivationLayer("act", kind=Activation.SIGMOID), (3, 4, 4),
             np.float16),
            (ActivationLayer("act", kind=Activation.TANH), (3, 4, 4),
             np.float16),
            (ActivationLayer("act", kind=Activation.RELU), (3, 4, 4),
             np.float64)]:
        plan = compile_plan(layer, in_shape, WeightStore(), dtype)
        assert plan.kind == "oracle"
        want = run_layer(layer, WeightStore(),
                         np.ones((2,) + in_shape, dtype))
        assert (plan.out_shape, plan.out_dtype) == (want.shape[1:],
                                                    want.dtype)
        assert np.array_equal(plan.run_batch(np.ones((2,) + in_shape,
                                                     dtype)), want)


def test_plans_compile_floating_dtypes_only():
    layer, store, in_shape = _conv_setup()
    with pytest.raises(TypeError):
        compile_plan(layer, in_shape, store, np.int32)


def test_bind_rejects_a_source_it_would_misread():
    layer, store, in_shape = _conv_setup()
    plan = compile_plan(layer, in_shape, store)
    wide = np.zeros((2,) + in_shape[:-1] + (2 * in_shape[-1],),
                    np.float32)
    with pytest.raises(ShapeError, match="non-contiguous"):
        plan.bind(2, wide[..., ::2])
    with pytest.raises(ShapeError, match="float32"):
        plan.bind(2, np.zeros((2,) + in_shape, np.float64))


def test_store_tokens_separate_plans(zoo_model, zoo_weights):
    """Two engines over one network and two stores (two fleet slots)
    each compute with their own weights."""
    net = zoo_model("tc1").network
    first = zoo_weights("tc1")
    second = WeightStore({layer: {blob: array * 2.0 for blob, array
                                  in first.blobs(layer).items()}
                          for layer in first.layers()})
    images = _images(net, 2, seed=17)
    for store in (first, second, first):
        planned = ReferenceEngine(net, store, use_plans=True)
        oracle = ReferenceEngine(net, store, use_plans=False)
        assert np.array_equal(planned.run_batch(images),
                              oracle.run_batch(images))


# -- the unplanned oracle -----------------------------------------------------


def test_use_plans_false_parity(zoo_model, zoo_weights):
    net = zoo_model("lenet").network
    weights = zoo_weights("lenet")
    images = _images(net, 2, seed=10)
    disabled = ReferenceEngine(net, weights, use_plans=False)
    before = default_plan_cache().stats()
    expected = disabled.run_batch(images)
    assert default_plan_cache().stats() == before  # nothing compiled
    planned = ReferenceEngine(net, weights)
    assert np.array_equal(planned.run_batch(images), expected)


# -- batch-size invariance ----------------------------------------------------


@pytest.mark.parametrize("use_plans", [True, False],
                         ids=["planned", "oracle"])
@pytest.mark.parametrize("name", ["tc1", "lenet"])
def test_batch_size_invariance(name, use_plans, zoo_model, zoo_weights):
    """Row i of an N-sample batch is bit-equal to sample i run alone.

    Every size binds prefix views of the same arena buffers; the
    oversize batch runs in chunks, and the closing N=1 pass replays
    after every other size wrote past its rows.
    """
    net = zoo_model(name).network
    engine = ReferenceEngine(net, zoo_weights(name), use_plans=use_plans)
    sizes = (1, 2, 3, 5, 8, 2 * ARENA_ROWS + 3, 1)
    assert max(sizes) > ARENA_ROWS
    images = _images(net, max(sizes), seed=13)
    singles = np.concatenate([engine.run_batch(images[i:i + 1])
                              for i in range(max(sizes))])
    for n in sizes:
        out = engine.run_batch(images[:n])
        assert out.dtype == singles.dtype
        assert np.array_equal(out, singles[:n]), f"N={n}"


def test_planned_fc_applies_every_activation():
    """The fused activation of a planned FC layer must reach its output
    for every kind, not just the in-place ReLU."""
    from repro.ir.layers import Activation, FlattenLayer, \
        FullyConnectedLayer
    from repro.ir.network import chain

    for kind in (Activation.RELU, Activation.SIGMOID, Activation.TANH):
        net = chain("fc", (1, 4, 4), [
            FlattenLayer("flat"),
            FullyConnectedLayer("fc", num_output=3, activation=kind),
        ])
        planned, oracle = _engines(net, WeightStore.initialize(net, 1))
        images = _images(net, 2, seed=14)
        assert np.array_equal(planned.run_batch(images),
                              oracle.run_batch(images)), kind


@pytest.mark.parametrize("path", ["planned", "oracle", "quantized"])
def test_empty_batch_rejected(path, zoo_model, zoo_weights):
    """Every path rejects N=0 with the same error before running."""
    net = zoo_model("tc1").network
    if path == "quantized":
        engine = QuantizedEngine(net, zoo_weights("tc1"),
                                 QuantScheme(bits=8))
    else:
        engine = ReferenceEngine(net, zoo_weights("tc1"),
                                 use_plans=path == "planned")
    with pytest.raises(ShapeError, match="N >= 1"):
        engine.run_batch(_images(net, 0))


# -- the ledger ---------------------------------------------------------------


@pytest.mark.parametrize("mode", ["untraced", "recording", "threads"])
def test_warm_passes_count_one_hit_per_layer(mode, zoo_model, zoo_weights):
    # each pass reports its memo hits in one call; none may be lost,
    # including when two threads share one engine: the ledger is
    # process-wide, and an engine may be shared by threads
    import threading

    from repro.nn.plan import PLAN_HITS
    from repro.obs import recording

    net = zoo_model("tc1").network
    engine = ReferenceEngine(net, zoo_weights("tc1"), use_plans=True)
    images = _images(net, 3, seed=12)
    engine.run_batch(images)  # cold pass: compiles, no memo hits
    hits_before = default_plan_cache().stats()["hits"]
    metric_before = PLAN_HITS.total()
    passes = 6
    if mode == "threads":
        def work():
            for _ in range(passes // 2):
                engine.run_batch(images)
        workers = [threading.Thread(target=work) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    elif mode == "recording":
        with recording() as rec:
            for _ in range(passes):
                engine.run_batch(images)
        assert any(s.name == "engine.layer" for s in rec.spans)
    else:
        for _ in range(passes):
            engine.run_batch(images)
    expected = passes * len(net.layers)
    assert default_plan_cache().stats()["hits"] - hits_before == expected
    assert PLAN_HITS.total() - metric_before == expected


def test_default_cache_is_shared():
    assert default_plan_cache() is default_plan_cache()


def test_compile_plan_kinds(zoo_model, zoo_weights):
    net = zoo_model("lenet").network
    weights = zoo_weights("lenet")
    kinds = {compile_plan(layer, net.input_shape(layer).as_tuple(),
                          weights).kind
             for layer in net.layers}
    assert {"input", "conv", "max-pool", "fc"} <= kinds
