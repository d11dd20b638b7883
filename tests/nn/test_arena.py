"""The per-thread scratch arena every compiled pass binds on.

Two engines over one network with different weights (two FPGA slots)
bind the same buffers on a thread, at every batch size, so a pass must
never depend on what another engine or another batch size left in
them: padded staging buffers keep their zero or ``-inf`` border, and
every other buffer is rewritten before it is read.
"""

import numpy as np

from repro.frontend.weights import WeightStore
from repro.ir.layers import (
    Activation,
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    PoolLayer,
    PoolOp,
    SoftmaxLayer,
)
from repro.ir.network import chain
from repro.nn.engine import ReferenceEngine
from repro.nn.plan import ARENA_ROWS, Arena

IN_SHAPE = (3, 13, 11)


def _net():
    return chain("arena", IN_SHAPE, [
        # padded conv, OW 11: zero-bordered staging + two-stage copy
        ConvLayer("conv1", num_output=4, kernel=3, pad=1,
                  activation=Activation.RELU),
        # padded pool: -inf-bordered staging
        PoolLayer("pool1", op=PoolOp.MAX, kernel=3, stride=2, pad=1),
        # padded conv, OW 6: zero-bordered staging + index-map gather
        ConvLayer("conv2", num_output=5, kernel=3, pad=1),
        # 7x6 input, ceil mode: a -inf ceil extension
        PoolLayer("pool2", op=PoolOp.MAX, kernel=2, stride=2,
                  ceil_mode=True),
        FlattenLayer("flat"),
        FullyConnectedLayer("fc", num_output=7),
        SoftmaxLayer("prob"),
    ])


def test_two_engines_interleave_every_batch_size_on_one_arena():
    net = _net()
    stores = [WeightStore.initialize(net, seed=s) for s in (1, 2)]
    engines = [ReferenceEngine(net, s) for s in stores]
    oracles = [ReferenceEngine(net, s, use_plans=False) for s in stores]
    sizes = list(range(1, ARENA_ROWS + 1)) + [2 * ARENA_ROWS + 5]
    rng = np.random.default_rng(5)
    images = rng.normal(size=(max(sizes),) + IN_SHAPE) \
        .astype(np.float32)
    # large inputs too, so a stale interior would show
    images[::3] *= 50.0
    expected = [oracle.run_batch(images) for oracle in oracles]
    order = sizes + sizes[::-1] + sizes[::2]
    for n in order:
        for k, engine in enumerate(engines):
            got = engine.run_batch(images[:n])
            assert np.array_equal(got, expected[k][:n]), (k, n)
    a, b = (engine._memo[1] for engine in engines)
    # the two engines and every batch size share one set of buffers
    assert np.shares_memory(a._bound(3).input, b._bound(8).input)
    assert np.shares_memory(a._bound(2).output, b._bound(5).output)


def test_arena_roles_keep_their_own_buffers():
    arena = Arena(rows=4)
    role = ("layer", (2, 3), "<f4")
    zeros = arena.take(role, "pad", 2, (2, 3), np.float32, fill=0.0)
    assert zeros.shape == (2, 2, 3) and zeros.flags.c_contiguous
    assert not zeros.any()
    again = arena.take(role, "pad", 4, (2, 3), np.float32, fill=0.0)
    assert np.shares_memory(zeros, again)
    floor = arena.take(role, "pad", 1, (2, 3), np.float32,
                       fill=-np.inf)
    assert not np.shares_memory(zeros, floor)
    assert (floor == -np.inf).all()
    other = arena.take(("other",) + role[1:], "pad", 2, (2, 3),
                       np.float32, fill=0.0)
    assert not np.shares_memory(zeros, other)
