"""Concurrency guarantees of the plan layer: replay from many threads
(bit-identical to serial), with the shared plan ledger losing no count.

Runs meaningfully both ways: plain (plain locks) and under
``REPRO_TSAN=1`` (CI), where every lock below is instrumented and the
autouse conftest fixture fails the test on any sanitizer error.
"""

import sys
import threading

import numpy as np

from repro.frontend.weights import WeightStore
from repro.nn.engine import ReferenceEngine
from repro.nn.plan import ARENA_ROWS, compile_plan, default_plan_cache

THREADS = 8


def _run_threads(n, fn):
    """Barrier-start ``n`` threads on ``fn(i)``; re-raise any failure."""
    barrier = threading.Barrier(n)
    errors = []

    def body(i):
        barrier.wait(timeout=10)
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "worker hung"
    if errors:
        raise errors[0]


def test_shared_default_cache_threaded_replay_bit_identical(
        zoo_model, zoo_weights):
    """N engines in N threads replay bit-identically to the serial
    unplanned oracle, and the shared ledger counts every compile and
    every warm replay."""
    net = zoo_model("tc1").network
    store = zoo_weights("tc1")
    rng = np.random.default_rng(42)
    images = rng.normal(
        size=(6,) + net.input_shape().as_tuple()).astype(np.float32)
    oracle = ReferenceEngine(net, store, use_plans=False)
    expected = [oracle.forward(img) for img in images]
    results = [None] * THREADS
    before = default_plan_cache().stats()

    def work(i):
        # every thread constructs its own engine, which compiles its
        # pass once and replays it for the other images
        engine = ReferenceEngine(net, store)
        results[i] = [engine.forward(img) for img in images]

    _run_threads(THREADS, work)
    for outs in results:
        for got, want in zip(outs, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    after = default_plan_cache().stats()
    layers = len(net.layers)
    assert after["misses"] - before["misses"] == THREADS * layers
    assert after["hits"] - before["hits"] == \
        THREADS * (len(images) - 1) * layers


def test_single_plan_concurrent_replay_bit_identical():
    """One compiled plan replayed from many threads at once: the
    per-thread scratch buffers keep results exact."""
    from repro.ir.layers import ConvLayer

    layer = ConvLayer(name="conv", num_output=3, kernel=(3, 3))
    store = WeightStore()
    rng = np.random.default_rng(7)
    store.set("conv", "weights",
              rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
    store.set("conv", "bias",
              rng.normal(size=(3,)).astype(np.float32))
    plan = compile_plan(layer, (2, 10, 10), store)
    inputs = rng.normal(size=(THREADS, 1, 2, 10, 10)).astype(np.float32)
    # plan.run_batch returns the (per-thread) scratch output buffer,
    # which the next run overwrites: copy anything kept across calls
    expected = [plan.run_batch(x).copy() for x in inputs]
    results = [None] * THREADS

    def work(i):
        for _ in range(20):
            results[i] = plan.run_batch(inputs[i]).copy()

    _run_threads(THREADS, work)
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


def test_shared_engine_cycles_batch_sizes_across_threads(zoo_model,
                                                         zoo_weights):
    """Two threads share one engine and cycle through every batch size
    up to and past the arena's rows, each over its own arena while the
    other replays: every output is bit-identical to the oracle."""
    net = zoo_model("tc1").network
    store = zoo_weights("tc1")
    engine = ReferenceEngine(net, store)
    oracle = ReferenceEngine(net, store, use_plans=False)
    sizes = (1, 2, 3, 5, 8, 4, 1, 7, ARENA_ROWS + 3, 6)
    assert max(sizes) > ARENA_ROWS
    # each thread its own images: a binding shared across threads
    # would mix them
    images = np.random.default_rng(43).normal(
        size=(2, max(sizes)) + net.input_shape().as_tuple()) \
        .astype(np.float32)
    expected = {(i, n): oracle.run_batch(images[i, :n])
                for i in range(2) for n in set(sizes)}
    wrong = []

    def work(i):
        order = sizes if i == 0 else sizes[::-1]
        for _ in range(8):
            for n in order:
                if not np.array_equal(engine.run_batch(images[i, :n]),
                                      expected[i, n]):
                    wrong.append((i, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_threads(2, work)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
