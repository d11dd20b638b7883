"""BatchNorm/Scale folding tests.

The folded network (conv only) must compute exactly what the unfolded
conv → BN → Scale chain computes; the numpy oracle for BN/Scale is
written here independently.
"""

import numpy as np
import pytest

from repro.errors import UnsupportedLayerError
from repro.frontend.caffe import caffe_pb
from repro.frontend.caffe.converter import convert_caffe_model, convert_net
from repro.frontend.caffe.model import array_to_blob, parse_prototxt
from repro.frontend.caffe.schema import Message
from repro.ir.layers import ConvLayer
from repro.nn import functional as F
from repro.nn.engine import ReferenceEngine

PROTOTXT = '''\
name: "bn_net"
input: "data"
input_dim: [1, 2, 8, 8]
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param { num_output: 4 kernel_size: 3 bias_term: false }
}
layer {
  name: "bn1"
  type: "BatchNorm"
  bottom: "conv1"
  top: "conv1"
  batch_norm_param { use_global_stats: true eps: 0.001 }
}
layer {
  name: "scale1"
  type: "Scale"
  bottom: "conv1"
  top: "conv1"
  scale_param { bias_term: true }
}
'''


def build_caffemodel(seed=0, scale_factor=0.999):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
    mean = rng.normal(size=4).astype(np.float32)
    var = rng.uniform(0.5, 2.0, size=4).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, size=4).astype(np.float32)
    beta = rng.normal(size=4).astype(np.float32)

    model = caffe_pb.new_net("bn_net")
    conv = model.add("layer")
    conv.set_fields(name="conv1", type="Convolution",
                    blobs=[array_to_blob(w)])
    bn = model.add("layer")
    bn.set_fields(name="bn1", type="BatchNorm", blobs=[
        array_to_blob(mean * scale_factor),
        array_to_blob(var * scale_factor),
        array_to_blob(np.array([scale_factor], dtype=np.float32)),
    ])
    sc = model.add("layer")
    sc.set_fields(name="scale1", type="Scale", blobs=[
        array_to_blob(gamma), array_to_blob(beta)])
    return model, (w, mean, var, gamma, beta)


def unfolded_reference(x, params, eps=0.001):
    w, mean, var, gamma, beta = params
    y = F.conv2d(x[None], w, None)[0]
    y = (y - mean[:, None, None]) / np.sqrt(var + eps)[:, None, None]
    return y * gamma[:, None, None] + beta[:, None, None]


class TestTopologyFolding:
    def test_bn_and_scale_disappear(self):
        net = convert_net(parse_prototxt(PROTOTXT))
        assert [l.name for l in net] == ["data", "conv1"]

    def test_conv_bias_enabled_by_fold(self):
        net = convert_net(parse_prototxt(PROTOTXT))
        conv = net["conv1"]
        assert isinstance(conv, ConvLayer)
        assert conv.bias is True  # prototxt said bias_term: false

    def test_bn_without_conv_rejected(self):
        text = ('input: "data" input_dim: [1, 2, 4, 4]\n'
                'layer { name: "bn" type: "BatchNorm" bottom: "data"'
                ' top: "bn" }')
        with pytest.raises(UnsupportedLayerError, match="BatchNorm"):
            convert_net(parse_prototxt(text))

    def test_bn_after_activation_rejected(self):
        text = ('input: "data" input_dim: [1, 1, 6, 6]\n'
                'layer { name: "c" type: "Convolution" bottom: "data"'
                ' top: "c" convolution_param { num_output: 2'
                ' kernel_size: 3 } }'
                'layer { name: "r" type: "ReLU" bottom: "c" top: "c" }'
                'layer { name: "bn" type: "BatchNorm" bottom: "c"'
                ' top: "c" }')
        with pytest.raises(UnsupportedLayerError):
            convert_net(parse_prototxt(text))


class TestNumericalFolding:
    def test_folded_matches_unfolded(self):
        caffemodel, params = build_caffemodel(seed=3)
        converted = convert_caffe_model(parse_prototxt(PROTOTXT),
                                        caffemodel)
        engine = ReferenceEngine(converted.network, converted.weights)
        x = np.random.default_rng(1).normal(size=(2, 8, 8)) \
            .astype(np.float32)
        folded = engine.forward(x)
        reference = unfolded_reference(x, params)
        np.testing.assert_allclose(folded, reference, rtol=1e-4,
                                   atol=1e-5)

    def test_scale_factor_normalization(self):
        """Caffe stores moments multiplied by a running scale factor;
        folding must divide it back out."""
        for sf in (0.5, 0.999, 1.0):
            caffemodel, params = build_caffemodel(seed=5,
                                                  scale_factor=sf)
            converted = convert_caffe_model(parse_prototxt(PROTOTXT),
                                            caffemodel)
            engine = ReferenceEngine(converted.network,
                                     converted.weights)
            x = np.random.default_rng(2).normal(size=(2, 8, 8)) \
                .astype(np.float32)
            np.testing.assert_allclose(
                engine.forward(x), unfolded_reference(x, params),
                rtol=1e-4, atol=1e-5)

    def test_bn_only_without_scale(self):
        text = PROTOTXT.replace(
            'layer {\n  name: "scale1"\n  type: "Scale"\n'
            '  bottom: "conv1"\n  top: "conv1"\n'
            '  scale_param { bias_term: true }\n}\n', '')
        caffemodel, params = build_caffemodel(seed=7)
        # drop the scale layer from the model too
        caffemodel.layer = [l for l in caffemodel.layer
                            if l.name != "scale1"]
        converted = convert_caffe_model(parse_prototxt(text), caffemodel)
        engine = ReferenceEngine(converted.network, converted.weights)
        x = np.random.default_rng(3).normal(size=(2, 8, 8)) \
            .astype(np.float32)
        w, mean, var, _, _ = params
        y = F.conv2d(x[None], w, None)[0]
        expected = (y - mean[:, None, None]) / \
            np.sqrt(var + 0.001)[:, None, None]
        np.testing.assert_allclose(engine.forward(x), expected,
                                   rtol=1e-4, atol=1e-5)

    def test_weights_validate_against_network(self):
        caffemodel, _ = build_caffemodel()
        converted = convert_caffe_model(parse_prototxt(PROTOTXT),
                                        caffemodel)
        converted.weights.validate(converted.network)
        assert converted.weights.get("conv1", "bias").shape == (4,)
