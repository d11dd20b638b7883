"""Applying quantization to weight stores and inference.

``quantize_store`` fake-quantizes every blob and reports per-layer error
statistics; :class:`QuantizedEngine` additionally fake-quantizes the
activation stream after every layer, modelling the fixed-point datapath
end to end, so accuracy impact can be measured against the fp32 engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frontend.weights import WeightStore
from repro.ir.layers import Layer, SoftmaxLayer
from repro.ir.network import Network
from repro.nn.engine import ReferenceEngine, as_batch
from repro.quant.scheme import QuantScheme, fake_quantize, quantize


@dataclass(frozen=True)
class LayerQuantStats:
    """Quantization error of one blob."""

    layer: str
    blob: str
    scale: float
    max_abs_error: float
    snr_db: float


@dataclass
class QuantReport:
    """Per-blob statistics of one quantization pass."""

    scheme: QuantScheme
    stats: list[LayerQuantStats] = field(default_factory=list)

    def worst_snr_db(self) -> float:
        return min((s.snr_db for s in self.stats), default=float("inf"))

    def summary(self) -> str:
        from repro.util.tables import TextTable

        table = TextTable(["layer", "blob", "scale", "max |err|",
                           "SNR (dB)"], float_format="{:.4g}")
        for s in self.stats:
            table.add_row([s.layer, s.blob, s.scale, s.max_abs_error,
                           s.snr_db])
        return table.render()


def _snr_db(original: np.ndarray, quantized: np.ndarray) -> float:
    noise = float(np.sum((original - quantized) ** 2))
    signal = float(np.sum(original ** 2))
    if noise == 0.0:
        return float("inf")
    if signal == 0.0:
        return 0.0
    return 10.0 * np.log10(signal / noise)


def quantize_store(store: WeightStore, scheme: QuantScheme) \
        -> tuple[WeightStore, QuantReport]:
    """Fake-quantize every blob; returns the new store + the report."""
    out = WeightStore()
    report = QuantReport(scheme=scheme)
    for layer in store.layers():
        for blob, array in store.blobs(layer).items():
            q, scale = quantize(array, scheme)
            deq = (q * scale).astype(np.float32)
            out.set(layer, blob, deq)
            report.stats.append(LayerQuantStats(
                layer=layer, blob=blob, scale=scale,
                max_abs_error=float(np.max(np.abs(array - deq)))
                if array.size else 0.0,
                snr_db=_snr_db(array, deq),
            ))
    return out, report


class QuantizedEngine(ReferenceEngine):
    """Inference with fake-quantized weights *and* activations.

    The input and every layer output are rounded onto the activation
    grid (per-tensor dynamic scale, as a hardware block with per-layer
    calibrated shifts would); softmax stays in floating point — in the
    architecture it runs on the host-facing normalization stage.  It
    runs the oracle kernels: the rounding is a per-layer hook, and
    compiled passes have none.
    """

    def __init__(self, net: Network, weights: WeightStore,
                 scheme: QuantScheme):
        quantized, self.report = quantize_store(weights, scheme)
        super().__init__(net, quantized, use_plans=False)
        self.scheme = scheme

    def _post_layer(self, layer: Layer, out: np.ndarray) -> np.ndarray:
        """Round each layer output onto the activation grid (a dynamic
        per-tensor scale)."""
        if isinstance(layer, SoftmaxLayer):
            return out
        return fake_quantize(out, self.scheme)

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        """Per-sample loop of N=1 passes over the quantized input,
        deliberately: the activation grid uses a dynamic per-tensor
        scale, so a whole-batch pass would calibrate one scale across
        the batch and change every sample's rounding."""
        batch = as_batch(batch)
        run = super().run_batch
        return np.stack([run(fake_quantize(sample[None], self.scheme))[0]
                         for sample in batch])


def top1_agreement(net: Network, weights: WeightStore,
                   scheme: QuantScheme, images: np.ndarray) -> float:
    """Fraction of inputs where the quantized engine picks the same class
    as the fp32 engine — the "negligible impact on accuracy" metric."""
    fp32 = ReferenceEngine(net, weights)
    fixed = QuantizedEngine(net, weights, scheme)
    images = np.asarray(images, dtype=np.float32)
    agree = fp32.predict_batch(images) == fixed.predict_batch(images)
    return float(np.mean(agree))
