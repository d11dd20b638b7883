"""The two window-gather strategies of conv and max-pool plans.

Plans whose output rows are at least ``STRIDED_MIN_OW`` wide fill their
scratch with one strided copy of the window view; narrower ones replay
a flat index map.  Either way the plan must equal the unplanned oracle
bit for bit and must not depend on the batch size, so the geometries
below straddle the threshold: output widths 2, 6, 8 and 12, stride 2,
conv zero padding, and ceil-mode max-pool whose extension is -inf.
"""

import numpy as np
import pytest

from repro.frontend.weights import WeightStore
from repro.ir.layers import Activation, ConvLayer, PoolLayer, PoolOp
from repro.nn.engine import run_layer
from repro.nn.plan import STRIDED_MIN_OW, compile_plan

BATCHES = (1, 3, 8)

# (output width, input (C, H, W), layer)
CONV_CASES = [
    (2, (3, 7, 5), ConvLayer("conv", num_output=4, kernel=3, stride=2)),
    (6, (3, 9, 8), ConvLayer("conv", num_output=4, kernel=3,
                             activation=Activation.RELU)),
    (8, (3, 6, 8), ConvLayer("conv", num_output=4, kernel=3, pad=1)),
    (12, (2, 28, 25), ConvLayer("conv", num_output=5, kernel=3, stride=2,
                                activation=Activation.RELU)),
    (12, (2, 11, 23), ConvLayer("conv", num_output=3, kernel=(3, 2),
                                stride=(1, 2), pad=(1, 1))),
]

POOL_CASES = [
    (2, (3, 6, 4), PoolLayer("pool", op=PoolOp.MAX, kernel=2)),
    (6, (3, 7, 11), PoolLayer("pool", op=PoolOp.MAX, kernel=2)),
    (8, (2, 9, 15), PoolLayer("pool", op=PoolOp.MAX, kernel=2)),
    (12, (2, 22, 22), PoolLayer("pool", op=PoolOp.MAX, kernel=3,
                                stride=2, pad=1)),
    (12, (2, 5, 12), PoolLayer("pool", op=PoolOp.MAX, kernel=(2, 1),
                               stride=(1, 1))),
]


def _conv_store(layer, in_shape):
    rng = np.random.default_rng(11)
    store = WeightStore()
    store.set(layer.name, "weights", rng.normal(
        size=(layer.num_output, in_shape[0]) + layer.kernel)
        .astype(np.float32))
    store.set(layer.name, "bias", rng.normal(
        size=layer.num_output).astype(np.float32))
    return store


def _check(layer, in_shape, store, ow):
    plan = compile_plan(layer, in_shape, store)
    assert plan.run_batch(np.zeros((1,) + in_shape, np.float32)) \
        .shape[-1] == ow
    assert ("copy" in plan.steps) == (ow >= STRIDED_MIN_OW)
    assert ("gather" in plan.steps) == (ow < STRIDED_MIN_OW)
    rng = np.random.default_rng(ow)
    xb = rng.normal(size=(max(BATCHES),) + in_shape).astype(np.float32)
    singles = [plan.run_batch(xb[i:i + 1]).copy() for i in range(len(xb))]
    for n in BATCHES:
        got = plan.run_batch(xb[:n]).copy()
        assert np.array_equal(got, run_layer(layer, store, xb[:n]))
        for i in range(n):  # batch-size invariance
            assert np.array_equal(got[i], singles[i][0])


@pytest.mark.parametrize("ow,in_shape,layer", CONV_CASES,
                         ids=[f"ow{c[0]}-{c[1]}" for c in CONV_CASES])
def test_conv_gather_matches_oracle(ow, in_shape, layer):
    _check(layer, in_shape, _conv_store(layer, in_shape), ow)


@pytest.mark.parametrize("ow,in_shape,layer", POOL_CASES,
                         ids=[f"ow{c[0]}-{c[1]}" for c in POOL_CASES])
def test_max_pool_gather_matches_oracle(ow, in_shape, layer):
    _check(layer, in_shape, WeightStore(), ow)


def test_ceil_mode_extension_is_minus_inf():
    # all-negative input: a zero-filled extension would win the max
    layer = PoolLayer("pool", op=PoolOp.MAX, kernel=2)
    in_shape = (1, 3, 17)  # OW = 9 under ceil mode -> strided copy
    plan = compile_plan(layer, in_shape, WeightStore())
    assert "copy" in plan.steps
    xb = -1.0 - np.random.default_rng(2).random(
        (2,) + in_shape).astype(np.float32)
    got = plan.run_batch(xb)
    assert np.all(got < 0)
    assert np.array_equal(got, run_layer(layer, WeightStore(), xb))
