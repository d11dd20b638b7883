"""Window gathers and fused stages of the compiled pass.

Conv plans fill their patch scratch by one of two strategies, chosen
from the output width: rows narrower than ``STRIDED_MIN_OW`` replay a
flat index map; wider rows copy windows out of strided views in two
stages (unfold the rows, then copy each (kh, kw) block, one contiguous
run when the vertical stride is 1).  Max-pool plans fold ``np.maximum`` over
window views, rows first.  A conv followed by a max-pool that needs no
padding binds into one stage that pools the GEMM output in place.

Whatever the strategy, the plan must equal the unplanned oracle bit for
bit and must not depend on the batch size, so the geometries below
straddle the width threshold, the stride cases and the fusion rule.
"""

import itertools

import numpy as np
import pytest

from repro.frontend.weights import WeightStore
from repro.ir.layers import Activation, ConvLayer, PoolLayer, PoolOp
from repro.ir.network import chain
from repro.nn import functional as F
from repro.nn.engine import ReferenceEngine, run_layer
from repro.nn.plan import (
    STRIDED_MIN_OW,
    compile_pass,
    compile_plan,
)

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
    assert ("copy" in plan.steps) == (
        plan.kind == "conv" and ow >= STRIDED_MIN_OW)
    assert ("gather" in plan.steps) == (
        plan.kind == "conv" and ow < STRIDED_MIN_OW)
    rng = np.random.default_rng(ow)
    xb = rng.normal(size=(max(BATCHES),) + in_shape).astype(np.float32)
    singles = [plan.run_batch(xb[i:i + 1]).copy() for i in range(len(xb))]
    for n in BATCHES:
        got = plan.run_batch(xb[:n]).copy()
        assert np.array_equal(got, run_layer(layer, store, xb[:n]))
        for i in range(n):  # batch-size invariance
            assert np.array_equal(got[i], singles[i][0])
    return plan


@pytest.mark.parametrize("ow,in_shape,layer", CONV_CASES,
                         ids=[f"ow{c[0]}-{c[1]}" for c in CONV_CASES])
def test_conv_gather_matches_oracle(ow, in_shape, layer):
    plan = _check(layer, in_shape, _conv_store(layer, in_shape), ow)
    # every stride takes the two-stage copy
    assert ("unfold" in plan.steps) == (ow >= STRIDED_MIN_OW)


@pytest.mark.parametrize("ow,in_shape,layer", POOL_CASES,
                         ids=[f"ow{c[0]}-{c[1]}" for c in POOL_CASES])
def test_max_pool_gather_matches_oracle(ow, in_shape, layer):
    plan = _check(layer, in_shape, WeightStore(), ow)
    padded = any(F.pool_pad_amounts(in_shape[1:], layer.kernel,
                                    layer.stride, layer.pad,
                                    layer.ceil_mode))
    assert plan.steps == ("pad",) * padded + ("max-w", "max-h")


def test_ceil_mode_extension_is_minus_inf():
    # all-negative input: a zero-filled extension would win the max
    layer = PoolLayer("pool", op=PoolOp.MAX, kernel=2)
    in_shape = (1, 3, 17)  # OW = 9 under ceil mode
    plan = compile_plan(layer, in_shape, WeightStore())
    assert "pad" in plan.steps
    xb = -1.0 - np.random.default_rng(2).random(
        (2,) + in_shape).astype(np.float32)
    got = plan.run_batch(xb)
    assert np.all(got < 0)
    assert np.array_equal(got, run_layer(layer, WeightStore(), xb))


# -- fused conv -> max-pool stages -------------------------------------------

ACTIVATIONS = list(Activation)

# (id, input (C, H, W), conv, pool, fused)
PAIR_CASES = [
    # conv OW 6 (index map), 2x2 pool
    ("ow6-s11", (2, 8, 8),
     ConvLayer("conv", num_output=3, kernel=3),
     PoolLayer("pool", kernel=2), True),
    # conv OW 12 (two-stage copy)
    ("ow12-s11", (3, 12, 14),
     ConvLayer("conv", num_output=4, kernel=3),
     PoolLayer("pool", kernel=2), True),
    # conv OW 10, stride (1, 2): two-stage copy of strided rows
    ("ow10-s12", (2, 9, 20),
     ConvLayer("conv", num_output=3, kernel=(3, 2), stride=(1, 2)),
     PoolLayer("pool", kernel=(1, 2)), True),
    # conv OW 8, stride (2, 2): two-stage copy of strided rows and columns
    ("ow8-s22", (2, 17, 17),
     ConvLayer("conv", num_output=3, kernel=3, stride=2),
     PoolLayer("pool", kernel=2), True),
    # conv OW 5, stride (2, 2), overlapping 3x3/2 pool windows
    ("ow5-s22-overlap", (2, 11, 11),
     ConvLayer("conv", num_output=3, kernel=3, stride=2),
     PoolLayer("pool", kernel=3, stride=2), True),
    # padded conv, OW 8
    ("ow8-pad", (2, 8, 8),
     ConvLayer("conv", num_output=3, kernel=3, pad=1),
     PoolLayer("pool", kernel=2), True),
    # padded conv, stride (1, 2), OW 7: the 6x7 map needs a ceil extension
    ("ow7-pad-s12-ceil", (1, 6, 13),
     ConvLayer("conv", num_output=2, kernel=3, stride=(1, 2), pad=1),
     PoolLayer("pool", kernel=2), False),
    # 7x7 map under a 2x2 ceil-mode pool: extension, stays unfused
    ("ow7-ceil", (2, 9, 9),
     ConvLayer("conv", num_output=3, kernel=3),
     PoolLayer("pool", kernel=2), False),
    # padded pool: stays unfused
    ("ow6-pool-pad", (2, 8, 8),
     ConvLayer("conv", num_output=3, kernel=3),
     PoolLayer("pool", kernel=3, stride=1, pad=1), False),
]


def _pair_net(in_shape, conv, pool, activation):
    conv = ConvLayer(conv.name, num_output=conv.num_output,
                     kernel=conv.kernel, stride=conv.stride, pad=conv.pad,
                     activation=activation)
    return chain("pair", in_shape, [conv, pool])


def _same_bits(got, want):
    """Bit-identical, NaN sign and payload aside: the oracle's strided
    window maximum does not preserve them (numpy's reduction loop
    returns a canonical NaN for some windows), so they are outside the
    contract."""
    both_nan = np.isnan(got) & np.isnan(want)
    return got.dtype == want.dtype and got.shape == want.shape and \
        bool(np.all(both_nan | (got.view(np.uint32)
                                == want.view(np.uint32))))


@pytest.mark.parametrize("activation", ACTIVATIONS,
                         ids=[a.value for a in ACTIVATIONS])
@pytest.mark.parametrize("case_id,in_shape,conv,pool,fused", PAIR_CASES,
                         ids=[c[0] for c in PAIR_CASES])
def test_fused_pair_matches_oracle(case_id, in_shape, conv, pool, fused,
                                   activation):
    net = _pair_net(in_shape, conv, pool, activation)
    store = _conv_store(conv, in_shape)
    compiled = compile_pass(net.layers, in_shape, np.dtype(np.float32),
                            store)
    assert compiled.stage_names == (
        ("data", "conv+pool") if fused else ("data", "conv", "pool"))
    oracle = ReferenceEngine(net, store, use_plans=False)
    xb = np.random.default_rng(len(case_id)).normal(
        size=(max(BATCHES),) + in_shape).astype(np.float32)
    for n in BATCHES:
        assert np.array_equal(compiled.run(xb[:n]),
                              oracle.run_batch(xb[:n])), n


# -- bias after pool: the edges ------------------------------------------------

_NAN = np.float32(np.nan)
#: every 2x2 window over these values is laid out once in one image
_EDGE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf,
                         1e-40, -1e-40, _NAN, -_NAN], np.float32)


def _edge_image():
    windows = np.array(list(itertools.product(range(len(_EDGE_VALUES)),
                                              repeat=4)))
    side = int(np.ceil(np.sqrt(len(windows))))
    grid = np.zeros((side * side, 4), int)
    grid[:len(windows)] = windows
    return _EDGE_VALUES[grid].reshape(side, side, 2, 2) \
        .transpose(0, 2, 1, 3).reshape(1, 1, 2 * side, 2 * side)


@pytest.mark.parametrize("biases", [
    [0.0, -0.0, 1.0, -1.0, 1e-40],
    [np.inf, -np.inf, np.nan],
], ids=["finite", "non-finite"])
@pytest.mark.parametrize("activation", ACTIVATIONS,
                         ids=[a.value for a in ACTIVATIONS])
def test_bias_after_pool_edges(biases, activation):
    """A 1x1 identity conv carries ±inf, NaN, subnormals and zeros (the
    input holds ±0; the GEMM sums them to +0) into a fused 2x2 pool,
    over every window of those values.  A finite bias
    with ReLU/none moves after the pool; any other bias must not (an
    infinite bias after the pool turns a -inf + inf NaN into inf)."""
    image = _edge_image()
    in_shape = image.shape[1:]
    net = chain("edge", in_shape, [
        ConvLayer("conv", num_output=len(biases), kernel=1,
                  activation=activation),
        PoolLayer("pool", kernel=2)])
    store = WeightStore()
    store.set("conv", "weights",
              np.ones((len(biases), 1, 1, 1), np.float32))
    store.set("conv", "bias", np.array(biases, np.float32))
    compiled = compile_pass(net.layers, in_shape, np.dtype(np.float32),
                            store)
    assert compiled.stage_names == ("data", "conv+pool")
    conv_out = F.conv2d(image, store.get("conv", "weights"))
    for value in (0.0, np.inf, -np.inf, 1e-40, -1e-40):
        assert np.any(conv_out.view(np.uint32) ==
                      np.float32(value).view(np.uint32)), value
    assert np.isnan(conv_out).any()
    with np.errstate(all="ignore"):
        want = ReferenceEngine(net, store, use_plans=False) \
            .run_batch(image)
        got = compiled.run(image)
    assert _same_bits(got, want)
