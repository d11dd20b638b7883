"""An N-sample batch must be bit-identical to N one-sample (N=1) passes.

The kernels were chosen so each sample's arithmetic dispatches the
exact same BLAS kernels whatever the batch size (stacked GEMMs, never a
widened one), so equality here is ``np.array_equal`` — not allclose —
on every zoo model.
"""

import numpy as np
import pytest

from repro.nn.engine import ReferenceEngine
from repro.quant.apply import QuantizedEngine
from repro.quant.scheme import QuantScheme

_BATCH = {"tc1": 5, "lenet": 4, "cifar10": 3, "vgg16": 2}


def _images(net, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch,) + net.input_shape().as_tuple()) \
        .astype(np.float32)


@pytest.mark.parametrize("name", ["tc1", "lenet", "cifar10", "vgg16"])
def test_run_batch_bit_identical(name, zoo_model, zoo_weights):
    net = zoo_model(name).network
    engine = ReferenceEngine(net, zoo_weights(name))
    images = _images(net, _BATCH[name])
    singles = np.stack([engine.forward(image) for image in images])
    batched = engine.run_batch(images)
    assert batched.dtype == singles.dtype
    assert np.array_equal(batched, singles)


@pytest.mark.parametrize("name", ["tc1", "lenet"])
def test_forward_batch_and_predict_batch(name, zoo_model, zoo_weights):
    net = zoo_model(name).network
    engine = ReferenceEngine(net, zoo_weights(name))
    images = _images(net, _BATCH[name], seed=1)
    assert np.array_equal(engine.forward_batch(images),
                          engine.run_batch(images))
    assert np.array_equal(
        engine.predict_batch(images),
        [engine.predict(image) for image in images])


def test_batch_of_one_matches_forward(zoo_model, zoo_weights):
    net = zoo_model("lenet").network
    engine = ReferenceEngine(net, zoo_weights("lenet"))
    images = _images(net, 1)
    assert np.array_equal(engine.run_batch(images)[0],
                          engine.forward(images[0]))


def test_quantized_engine_batch_matches_per_sample(zoo_model,
                                                   zoo_weights):
    """The quantized engine calibrates a dynamic per-tensor activation
    scale, so its batch path must loop per sample — one shared scale
    across the batch would change every sample's rounding."""
    net = zoo_model("tc1").network
    engine = QuantizedEngine(net, zoo_weights("tc1"),
                             QuantScheme(bits=8))
    images = _images(net, 4, seed=2)
    singles = np.stack([engine.forward(image) for image in images])
    assert np.array_equal(engine.run_batch(images), singles)
