"""Closed-form performance and power models.

The accelerator is a high-level pipeline of PEs: with a batch of images
streaming through, each PE works on a different image concurrently (this is
what Figure 5 of the paper measures).  For batch size ``B``::

    total cycles  =  Σ_i latency_i  +  (B − 1) · II
    II            =  max_i cycles_i            (the bottleneck stage)

so the mean time per image, ``total / B``, decreases with the batch size and
converges to ``II / f`` — and since per-stage latencies are of the same
order as II, convergence is reached once ``B`` exceeds roughly the number of
pipeline stages, exactly the paper's observation ("convergence is reached
approximately when the batch size is bigger than the total number of layers
of the network").

Per-PE cycle counts follow from the architecture: the window loop is fully
unrolled (one output point per cycle per in×out port pair), feature maps are
processed in sequential groups of the parallelism degree, and a PE that
fuses several logical layers iterates them in its outer loop (their cycles
add up).  These counts are cross-validated against the discrete-event
simulator in the A4 ablation bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hw.components import Accelerator, PEKind, ProcessingElement
from repro.hw.estimate import ResourceEstimate, estimate_accelerator
from repro.hw.resources import device_for_board
from repro.ir.flops import layer_flops
from repro.ir.layers import (
    ActivationLayer,
    ConvLayer,
    FullyConnectedLayer,
    Layer,
    PoolLayer,
    SoftmaxLayer,
)
from repro.ir.network import Network


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def layer_cycles(net: Network, layer: Layer, in_parallel: int,
                 out_parallel: int) -> int:
    """Steady-state cycles one layer contributes to its PE, per image."""
    in_shape = net.input_shape(layer)
    out_shape = net.output_shape(layer)
    if isinstance(layer, ConvLayer):
        out_groups = _ceil_div(layer.num_output, out_parallel)
        in_groups = _ceil_div(in_shape.channels, in_parallel)
        compute = out_groups * in_groups * out_shape.spatial_size
        # the input stream must be ingested once regardless of compute
        ingest = in_groups * in_shape.spatial_size
        return max(compute, ingest)
    if isinstance(layer, PoolLayer):
        groups = _ceil_div(in_shape.channels, in_parallel)
        # the pool PE is ingest-bound: one input element per cycle per port
        return groups * in_shape.spatial_size
    if isinstance(layer, FullyConnectedLayer):
        # single-input/single-output 1×1-conv PE: one MAC per cycle
        return layer.num_output * in_shape.size
    if isinstance(layer, (ActivationLayer, SoftmaxLayer)):
        return in_shape.size
    return 0


def pe_cycles(net: Network, pe: ProcessingElement,
              cal: Calibration = DEFAULT_CALIBRATION) -> int:
    """Steady-state cycles of a PE per image (fused layers add up)."""
    return sum(layer_cycles(net, net[name], pe.in_parallel, pe.out_parallel)
               for name in pe.layer_names)


def pe_fill_cycles(pe: ProcessingElement,
                   cal: Calibration = DEFAULT_CALIBRATION) -> int:
    """Pipeline fill (latency beyond the steady-state cycles)."""
    if pe.kind is PEKind.CONV:
        depth = cal.conv_pipeline_depth
    elif pe.kind is PEKind.FC:
        depth = cal.fc_pipeline_depth
    else:
        depth = cal.pool_pipeline_depth
    # the filter chain adds its buffered span before the first window is
    # complete
    buffered = max((m.spec.buffered_words for m in pe.memory), default=0)
    return depth + buffered


@dataclass
class AcceleratorPerformance:
    """The evaluated performance of one accelerator."""

    accelerator: Accelerator
    frequency_hz: float
    #: Steady-state cycles per PE, in pipeline order.
    stage_cycles: list[int]
    #: Per-PE latency (cycles incl. fill).
    stage_latency: list[int]
    #: FLOPs of one forward pass.
    flops_per_image: int
    #: One-off configuration cycles (weight preload through the datamover).
    config_cycles: int
    #: Cycles the DDR interface needs per image (streamed weights,
    #: spilled buffers, network I/O); part of the II when it dominates.
    ddr_cycles: int = 0

    @property
    def ii_cycles(self) -> int:
        """Steady-state initiation interval: the bottleneck stage, or the
        DDR interface when the design is bandwidth-bound."""
        return max(max(self.stage_cycles), self.ddr_cycles)

    @property
    def bandwidth_bound(self) -> bool:
        return self.ddr_cycles > max(self.stage_cycles)

    @property
    def pipeline_latency_cycles(self) -> int:
        """Cycles for a single image to traverse the empty pipeline."""
        return sum(self.stage_latency)

    def batch_cycles(self, batch: int) -> int:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return self.pipeline_latency_cycles + (batch - 1) * self.ii_cycles

    def mean_time_per_image(self, batch: int) -> float:
        """Seconds per image at the given batch size (Figure 5's metric)."""
        return self.batch_cycles(batch) / batch / self.frequency_hz

    def throughput_images_per_s(self, batch: int | None = None) -> float:
        if batch is None:
            return self.frequency_hz / self.ii_cycles
        return 1.0 / self.mean_time_per_image(batch)

    def gflops(self, batch: int | None = None) -> float:
        """GFLOP/s; ``batch=None`` gives the steady-state (large-batch)
        value, which is what Tables 1 and 2 report."""
        return (self.flops_per_image *
                self.throughput_images_per_s(batch)) / 1e9


def ddr_bytes_per_image(acc: Accelerator) -> int:
    """DDR bytes moved per image in steady state.

    Always: the network input and output.  Additionally, PEs whose
    weights are spilled stream their full weight set once per image, and
    PEs whose re-read buffer is spilled fetch the input once per extra
    output group (the re-reads an on-chip buffer would have served).
    Fixed-point datapaths move proportionally fewer bytes — the bandwidth
    benefit quantization exists for.
    """
    from repro.quant.scheme import PRECISIONS

    net = acc.network
    word_bytes = (PRECISIONS[acc.pes[0].precision]["bits"] / 8
                  if acc.pes else 4)
    total = (net.input_shape().size + net.output_shape().size) * word_bytes
    for pe in acc.pes:
        bytes_per_word = PRECISIONS[pe.precision]["bits"] / 8
        if pe.weight_words and not pe.weights_on_chip:
            total += pe.weight_words * bytes_per_word
        if pe.buffer_words and not pe.buffer_on_chip:
            out_channels = net.output_shape(pe.layer_names[0]).channels
            groups = _ceil_div(out_channels, pe.out_parallel)
            total += pe.buffer_words * max(groups - 1, 0) * bytes_per_word
    return math.ceil(total)


def estimate_performance(acc: Accelerator,
                         cal: Calibration = DEFAULT_CALIBRATION,
                         *, pe_cache: dict | None = None) \
        -> AcceleratorPerformance:
    """Evaluate the closed-form model for an accelerator.

    ``pe_cache`` maps a :class:`ProcessingElement` to its
    ``(cycles, latency, flops)`` triple so repeated evaluations of
    neighbouring designs (the DSE explorer) skip the per-layer walks for
    PEs that did not change.  Entries assume a fixed network and
    calibration.
    """
    from repro.obs import span

    with span("hw.perf", accelerator=acc.name):
        return _estimate_performance(acc, cal, pe_cache=pe_cache)


def _pe_perf(net: Network, pe: ProcessingElement,
             cal: Calibration) -> tuple[int, int, int]:
    cycles = pe_cycles(net, pe, cal)
    latency = cycles + pe_fill_cycles(pe, cal)
    flops = sum(layer_flops(net[name], net.input_shape(name))
                for name in pe.layer_names)
    return cycles, latency, flops


def _estimate_performance(acc: Accelerator, cal: Calibration,
                          *, pe_cache: dict | None = None) \
        -> AcceleratorPerformance:
    net = acc.network
    triples = []
    for pe in acc.pes:
        if pe_cache is None:
            triple = _pe_perf(net, pe, cal)
        else:
            triple = pe_cache.get(pe)
            if triple is None:
                triple = _pe_perf(net, pe, cal)
                pe_cache[pe] = triple
        triples.append(triple)
    cycles = [t[0] for t in triples]
    latency = [t[1] for t in triples]
    flops = sum(t[2] for t in triples)
    onchip_weight_words = sum(pe.weight_words for pe in acc.pes
                              if pe.weights_on_chip)
    config = math.ceil(onchip_weight_words *
                       cal.weight_load_cycles_per_word)
    device = device_for_board(acc.device_part)
    bytes_per_cycle = (device.ddr_channels * device.ddr_bandwidth /
                       acc.frequency_hz)
    ddr = math.ceil(ddr_bytes_per_image(acc) / bytes_per_cycle)
    return AcceleratorPerformance(
        accelerator=acc,
        frequency_hz=acc.frequency_hz,
        stage_cycles=cycles,
        stage_latency=latency,
        flops_per_image=flops,
        config_cycles=config,
        ddr_cycles=ddr,
    )


def estimate_power_watts(acc: Accelerator,
                         estimate: ResourceEstimate | None = None,
                         cal: Calibration = DEFAULT_CALIBRATION) -> float:
    """Total power: device static + resource-proportional dynamic + DDR.

    The dynamic term scales with the clock; Table 1's GFLOPS/W column is
    GFLOPS divided by this number.
    """
    device = device_for_board(acc.device_part)
    if estimate is None:
        estimate = estimate_accelerator(acc, cal)
    total = estimate.total
    f = acc.frequency_hz
    dynamic = f * (total.lut * cal.power_per_lut_hz +
                   total.ff * cal.power_per_ff_hz +
                   total.dsp * cal.power_per_dsp_hz +
                   total.bram_18k * cal.power_per_bram18_hz)
    return device.static_power_w + cal.ddr_active_power_w + dynamic
