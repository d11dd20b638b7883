"""Generated networks: the compiled pass equals the oracle bit for bit.

A hypothesis generator draws small chains of conv, pool, activation,
flatten, fully-connected and softmax layers — every geometry the
plans branch on (index-map, strided and two-stage window copies,
padded and ceil-mode pools, fused and unfused conv→max-pool stages,
every activation, bias on and off) — and runs each through the planned
engine and the unplanned oracle at N=1 and N=3.  Generation is
derandomized, so a failure reproduces.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

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
from repro.ir.shapes import TensorShape
from repro.nn.engine import ReferenceEngine

ACTIVATIONS = st.sampled_from(list(Activation))


def _conv(draw, name):
    return ConvLayer(name, num_output=draw(st.integers(1, 4)),
                     kernel=(draw(st.integers(1, 3)),
                             draw(st.integers(1, 3))),
                     stride=(draw(st.integers(1, 2)),
                             draw(st.integers(1, 2))),
                     pad=(draw(st.integers(0, 1)), draw(st.integers(0, 1))),
                     bias=draw(st.booleans()),
                     activation=draw(ACTIVATIONS))


def _pool(draw, name, op=None, pad=None):
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    if pad is None:
        pad = (draw(st.integers(0, kernel[0] - 1)),
               draw(st.integers(0, kernel[1] - 1)))
    return PoolLayer(name, op=op or draw(st.sampled_from(list(PoolOp))),
                     kernel=kernel,
                     stride=(draw(st.integers(1, 2)),
                             draw(st.integers(1, 2))),
                     pad=pad, ceil_mode=draw(st.booleans()))


@st.composite
def _feature_block(draw, name):
    """One to two feature layers; a conv→max-pool pair is the fusion
    candidate (it fuses unless the pool needs a ceil extension)."""
    kind = draw(st.sampled_from(["conv", "conv+pool", "pool", "act"]))
    if kind == "act":
        return [ActivationLayer(name, kind=draw(st.sampled_from(
            [Activation.RELU, Activation.SIGMOID, Activation.TANH])))]
    if kind == "conv":
        return [_conv(draw, name)]
    if kind == "pool":
        return [_pool(draw, name)]
    return [_conv(draw, name),
            _pool(draw, name + "p", op=PoolOp.MAX, pad=(0, 0))]


@st.composite
def networks(draw):
    c, h, w = (draw(st.integers(1, 3)), draw(st.integers(3, 20)),
               draw(st.integers(3, 20)))
    shape = TensorShape(c, h, w)
    layers = []
    for i in range(draw(st.integers(0, 3))):
        block = draw(_feature_block(f"f{i}"))
        try:
            out = shape
            for layer in block:
                out = layer.output_shape(out)
        except ShapeError:
            continue
        if min(out.as_tuple()) < 1:
            continue
        layers += block
        shape = out
    if draw(st.booleans()):
        layers.append(FlattenLayer("flat"))
    for i in range(draw(st.integers(0, 2))):
        layers.append(FullyConnectedLayer(
            f"fc{i}", num_output=draw(st.integers(1, 6)),
            bias=draw(st.booleans()), activation=draw(ACTIVATIONS)))
    if layers and not isinstance(layers[-1], (ConvLayer, PoolLayer,
                                              ActivationLayer)) \
            and draw(st.booleans()):
        layers.append(SoftmaxLayer("prob", log=draw(st.booleans())))
    return chain("fuzz", (c, h, w), layers)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(networks(), st.integers(0, 2**16))
def test_planned_pass_matches_oracle(net, seed):
    weights = WeightStore.initialize(net, seed)
    planned = ReferenceEngine(net, weights)
    oracle = ReferenceEngine(net, weights, use_plans=False)
    images = np.random.default_rng(seed).normal(
        size=(3,) + net.input_shape().as_tuple()).astype(np.float32)
    for n in (1, 3):
        want = oracle.run_batch(images[:n])
        got = planned.run_batch(images[:n])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
            (n, net.layers)
