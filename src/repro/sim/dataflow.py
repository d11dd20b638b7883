"""Execute an accelerator on the discrete-event kernel.

One process per building block, exactly as in Fig. 4 of the paper: the
datamover streams images in and collects results, each PE ingests its
predecessor's stream over a bounded FIFO, computes, and streams on.  The
run is *functional* (real fp32 values flow through the channels; the conv
window path goes through the :class:`~repro.sim.window.SlidingWindowBuffer`
chain model) and *cycle-approximate* (every stream transfer and compute
replay is charged its architectural cycle count, so batch behaviour —
Figure 5 — and the analytic model of :mod:`repro.hw.perf` can be
cross-validated).

Granularity: channel items are feature-map *rows* (or flat chunks for the
classifier stages), with a ``Delay`` equal to the element count — cycle
totals are preserved while the event count drops by ~the row width.

Inter-layer parallelism is simulated *lane-aggregated*: a PE with
``in_parallel = p`` reads p feature maps concurrently in hardware, so the
simulation charges one row's worth of cycles per group of p rows (the
first lane of each channel group carries the pacing) — data still flows
as whole rows on a single logical channel, keeping the functional path
identical while the cycle accounting matches the p-lane architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.frontend.weights import WeightStore
from repro.hw.components import Accelerator, PEKind, ProcessingElement
from repro.nn import functional as F
from repro.nn.engine import run_layer
from repro.sim.core import Channel, Delay, Get, Put, Simulator
from repro.sim.window import SlidingWindowBuffer
from repro.ir.layers import (
    Activation,
    ActivationLayer,
    ConvLayer,
    FullyConnectedLayer,
    PoolLayer,
    SoftmaxLayer,
)

#: Flat-vector transfer granularity (classifier stages).  Deliberately
#: NOT raised further: a larger chunk delays when the first partial FC
#: output reaches the next stage, which measurably shifts cycle totals
#: (LeNet: 1 281 920 at 64 vs 1 281 984 at 128), so only
#: cycle-preserving optimizations (zero-delay elision, slotted events,
#: ready-queue unblocks) are applied to this path.
_CHUNK = 64

_ACT = {
    Activation.NONE: lambda x: x,
    Activation.RELU: F.relu,
    Activation.SIGMOID: F.sigmoid,
    Activation.TANH: F.tanh,
}


@dataclass(slots=True)
class SimulationResult:
    """Outputs and measured timing of one simulated run."""

    outputs: list[np.ndarray]
    total_cycles: int
    image_done_cycles: list[int]
    pe_busy_cycles: dict[str, int] = field(default_factory=dict)
    pe_blocked_cycles: dict[str, int] = field(default_factory=dict)
    channel_max_occupancy: dict[str, int] = field(default_factory=dict)

    @property
    def batch(self) -> int:
        return len(self.outputs)

    def mean_cycles_per_image(self) -> float:
        return self.total_cycles / self.batch

    def mean_time_per_image(self, frequency_hz: float) -> float:
        return self.mean_cycles_per_image() / frequency_hz


def _source_process(acc: Accelerator, images: list[np.ndarray],
                    out_ch: Channel):
    """Datamover input side: stream each image channel-major, row by row,
    paced at the first PE's ingest rate (its parallel lanes).

    Group pacing, here and below: with ``lanes`` feature maps moving
    concurrently the first lane of each group pays the row's cycles and
    the other lanes ride along.  Their zero-cycle delays are elided
    entirely rather than yielded — a ``Delay(0)`` is a no-op in the
    kernel, so skipping the yield preserves cycle totals while saving a
    generator round-trip per row.
    """
    lanes = acc.pes[0].in_parallel
    for image in images:
        for ci, channel in enumerate(image):
            paced = ci % lanes == 0
            for row in channel:
                yield Put(out_ch, row.astype(np.float32))
                if paced:
                    yield Delay(len(row))


def _sink_process(acc: Accelerator, in_ch: Channel, batch: int,
                  out_shape: tuple[int, int, int],
                  results: list[np.ndarray], done_at: list[int],
                  sim: Simulator):
    """Datamover output side: reassemble (C, H, W) results.

    Vector-shaped results (classifier outputs) arrive as flat chunks;
    spatial results arrive row by row.
    """
    c, h, w = out_shape
    vector = (h == 1 and w == 1)
    for _ in range(batch):
        if vector:
            flat = np.empty(c, dtype=np.float32)
            pos = 0
            while pos < c:
                chunk = yield Get(in_ch)
                flat[pos:pos + len(chunk)] = chunk
                yield Delay(len(chunk))
                pos += len(chunk)
            out = flat.reshape(c, 1, 1)
        else:
            lanes = acc.pes[-1].out_parallel
            out = np.empty((c, h, w), dtype=np.float32)
            for ci in range(c):
                paced = ci % lanes == 0
                for r in range(h):
                    row = yield Get(in_ch)
                    if len(row) != w:
                        raise SimulationError(
                            f"sink expected rows of {w}, got {len(row)}")
                    out[ci, r] = row
                    if paced:
                        yield Delay(w)
        results.append(out)
        done_at.append(sim.now)


def _emit_maps(out_ch: Channel, maps: np.ndarray):
    """Sub-generator: stream a (F, H, W) activation row-by-row (the cycles
    were already charged by the compute that produced it)."""
    for fmap in maps:
        for row in fmap:
            yield Put(out_ch, row.astype(np.float32))


def _conv_ingest_and_compute(layer: ConvLayer, weights: WeightStore,
                             in_shape, in_ch: Channel,
                             out_ch: Channel | None = None,
                             p_in: int = 1, p_out: int = 1):
    """Ingest one image for a conv layer, computing output map 0 through
    the sliding-window chain as the stream arrives (the dataflow path),
    then replay the buffered input for the remaining output-map groups
    (``p_out`` maps per group; ``p_in`` input maps move per cycle).

    When ``out_ch`` is given (conv is the PE's last layer), each output
    group is streamed as soon as it is produced, so the downstream PE's
    ingest overlaps this PE's replay — the pipelining the architecture
    exists for.  Returns (x_padded, y) via generator return value.
    """
    c, h, w = in_shape.as_tuple()
    ph, pw = layer.pad
    sh, sw = layer.stride
    kh, kw = layer.kernel
    wts = weights.get(layer.name, "weights")
    bias = weights.get(layer.name, "bias") if layer.bias else None
    hp, wp = h + 2 * ph, w + 2 * pw
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    x = np.zeros((c, hp, wp), dtype=np.float32)
    y0 = np.zeros((oh, ow), dtype=np.float32)

    from repro.hw.partitioning import partition_window_accesses
    spec = partition_window_accesses((kh, kw), wp)
    swb = SlidingWindowBuffer(spec, hp)

    for ci in range(c):
        swb.reset()
        row_index = 0

        def feed(row: np.ndarray, ci: int) -> None:
            nonlocal row_index
            r = row_index
            for col, value in enumerate(row):
                window = swb.push(value)
                if window is None:
                    continue
                orow, ocol = r - kh + 1, col - kw + 1
                if orow % sh or ocol % sw:
                    continue
                y0[orow // sh, ocol // sw] += float(
                    np.dot(wts[0, ci].reshape(-1), window.reshape(-1)))
            row_index += 1

        for r in range(ph):  # top padding rows (zero, no stream cycles)
            feed(x[ci, r], ci)
        paced = ci % p_in == 0
        for r in range(h):
            row = yield Get(in_ch)
            x[ci, ph + r, pw:pw + w] = row
            if paced:
                yield Delay(w)
            feed(x[ci, ph + r], ci)
        for r in range(ph):  # bottom padding rows
            feed(x[ci, hp - ph + r], ci)

    if bias is not None:
        y0 += bias[0]
    f_total = layer.num_output
    y = np.empty((f_total, oh, ow), dtype=np.float32)
    y[0] = _ACT[layer.activation](y0)
    # the rest of output group 0 is computed by the parallel lanes during
    # the same ingest pass (no extra cycles)
    for f in range(1, min(p_out, f_total)):
        out = F.conv2d(x[None], wts[f:f + 1], None, stride=layer.stride)
        y[f] = _ACT[layer.activation](
            out[0, 0] + (bias[f] if bias is not None else 0.0))
    if out_ch is not None:
        yield from _emit_maps(out_ch, y[0:min(p_out, f_total)])
    # Replay the on-chip buffer for the remaining output groups: each
    # costs ceil(C / p_in) * OH * OW cycles; maps stream as they complete.
    in_groups = -(-c // p_in)
    for start in range(p_out, f_total, p_out):
        yield Delay(in_groups * oh * ow)
        stop = min(start + p_out, f_total)
        for f in range(start, stop):
            out = F.conv2d(x[None], wts[f:f + 1], None,
                           stride=layer.stride)
            y[f] = _ACT[layer.activation](
                out[0, 0] + (bias[f] if bias is not None else 0.0))
        if out_ch is not None:
            yield from _emit_maps(out_ch, y[start:stop])
    return x, y


def _ingest_vector(in_ch: Channel, size: int):
    """Sub-generator: receive a flat activation of ``size`` elements."""
    x = np.empty(size, dtype=np.float32)
    pos = 0
    while pos < size:
        chunk = np.asarray((yield Get(in_ch)), dtype=np.float32) \
            .reshape(-1)
        n = len(chunk)
        x[pos:pos + n] = chunk
        yield Delay(n)
        pos += n
    return x


def _pe_process(acc: Accelerator, pe: ProcessingElement,
                weights: WeightStore, batch: int,
                in_ch: Channel, out_ch: Channel):
    """The generic PE: ingest -> (fused layers) -> stream out.

    Unfused PEs stream their outputs as they are produced (map-by-map for
    conv replays, channel-by-channel for pools, chunk-by-chunk for FC), so
    downstream ingest overlaps this PE's work; a fused PE iterates its
    layers in the outer loop and streams the final result.
    """
    net = acc.network
    from repro.hw.perf import layer_cycles
    fused = len(pe.layer_names) > 1
    for _ in range(batch):
        first = net[pe.layer_names[0]]
        in_shape = net.input_shape(first)
        if isinstance(first, ConvLayer):
            _, y = yield from _conv_ingest_and_compute(
                first, weights, in_shape, in_ch,
                out_ch=None if fused else out_ch,
                p_in=pe.in_parallel, p_out=pe.out_parallel)
            emitted = not fused
        elif isinstance(first, PoolLayer):
            # a pooled channel depends only on its own input channel, so it
            # streams out as soon as that channel has arrived
            c, h, w = in_shape.as_tuple()
            x = np.empty((c, h, w), dtype=np.float32)
            maps = []
            for ci in range(c):
                paced = ci % pe.in_parallel == 0
                for r in range(h):
                    row = yield Get(in_ch)
                    x[ci, r] = row
                    if paced:
                        yield Delay(w)
                pooled = run_layer(first, weights, x[None, ci:ci + 1])[0]
                if not fused:
                    yield from _emit_maps(out_ch, pooled)
                maps.append(pooled)
            y = np.concatenate(maps, axis=0)
            emitted = not fused
        elif isinstance(first, ActivationLayer):
            # pure streaming: row in, row out
            c, h, w = in_shape.as_tuple()
            rows = []
            for ci in range(c):
                paced = ci % pe.in_parallel == 0
                for _r in range(h):
                    row = yield Get(in_ch)
                    if paced:
                        yield Delay(w)
                    out_row = _ACT[first.kind](
                        np.asarray(row, dtype=np.float32))
                    if not fused:
                        yield Put(out_ch, out_row.copy())
                    rows.append(out_row)
            y = np.array(rows, dtype=np.float32).reshape(c, h, w)
            emitted = not fused
        elif isinstance(first, FullyConnectedLayer):
            flat = in_shape.size
            x = yield from _ingest_vector(in_ch, flat)
            y = run_layer(first, weights,
                          x.reshape((1,) + in_shape.as_tuple()))[0]
            if not fused:
                # one MAC per cycle: each output chunk costs len * flat
                out_flat = y.reshape(-1)
                for pos in range(0, len(out_flat), _CHUNK):
                    chunk = out_flat[pos:pos + _CHUNK]
                    yield Delay(len(chunk) * flat)
                    yield Put(out_ch, chunk.astype(np.float32))
                emitted = True
            else:
                yield Delay(first.num_output * flat)
                emitted = False
        elif isinstance(first, SoftmaxLayer):
            flat = in_shape.size
            x = yield from _ingest_vector(in_ch, flat)
            y = run_layer(first, weights,
                          x.reshape((1,) + in_shape.as_tuple()))[0]
            emitted = False
        else:
            raise SimulationError(
                f"PE {pe.name!r}: cannot simulate layer type"
                f" {type(first).__name__}")

        for name in pe.layer_names[1:]:
            layer = net[name]
            yield Delay(layer_cycles(net, layer, pe.in_parallel,
                                     pe.out_parallel))
            y = run_layer(layer, weights, y[None])[0]

        if not emitted:
            out_shape = net.output_shape(pe.layer_names[-1])
            if out_shape.is_vector():
                flat_out = y.reshape(-1).astype(np.float32)
                for pos in range(0, len(flat_out), _CHUNK):
                    yield Put(out_ch, flat_out[pos:pos + _CHUNK].copy())
            else:
                yield from _emit_maps(out_ch,
                                      y.reshape(out_shape.as_tuple()))


def simulate_accelerator(acc: Accelerator, weights: WeightStore,
                         images: np.ndarray | list[np.ndarray],
                         *, max_cycles: int | None = None,
                         trace: "object | None" = None) \
        -> SimulationResult:
    """Run ``images`` (batch) through the accelerator; returns outputs and
    cycle measurements.

    Outputs are numerically comparable to
    :class:`~repro.nn.engine.ReferenceEngine` (fp32 accumulation order may
    differ in the last ulps).
    """
    weights.validate(acc.network)
    batch = len(images)
    if batch < 1:
        raise SimulationError("need at least one image")
    in_shape = acc.network.input_shape()
    for image in images:
        if tuple(image.shape) != in_shape.as_tuple():
            raise SimulationError(
                f"image shape {tuple(image.shape)} != network input"
                f" {in_shape.as_tuple()}")

    sim = Simulator()
    if trace is not None:
        sim.observers.append(trace)
    # One channel per stream edge on the main pipeline (weight-stream edges
    # are a configuration-time path; weights are preloaded here).
    channels: dict[tuple[str, str], Channel] = {}
    for edge in acc.edges:
        if edge.fifo.name.endswith("weights"):
            continue
        # row-granular items: capacity in rows (at least 2 for decoupling)
        dest_shape = (acc.network.input_shape(acc.pe(edge.dest)
                                              .layer_names[0])
                      if edge.dest != acc.datamover.name
                      else acc.network.output_shape())
        row = max(dest_shape.width, 1)
        capacity = max(2, edge.fifo.depth // row)
        channels[(edge.source, edge.dest)] = sim.channel(
            edge.fifo.name, capacity)

    dm = acc.datamover.name
    first_pe = acc.pes[0]
    last_pe = acc.pes[-1]
    results: list[np.ndarray] = []
    done_at: list[int] = []

    image_list = [np.asarray(img, dtype=np.float32) for img in images]
    sim.process("source", _source_process(
        acc, image_list, channels[(dm, first_pe.name)]))
    for i, pe in enumerate(acc.pes):
        in_ch = channels[(dm if i == 0 else acc.pes[i - 1].name, pe.name)]
        out_ch = channels[(pe.name,
                           acc.pes[i + 1].name if i + 1 < len(acc.pes)
                           else dm)]
        sim.process(pe.name, _pe_process(acc, pe, weights, batch,
                                         in_ch, out_ch))
    sim.process("sink", _sink_process(
        acc, channels[(last_pe.name, dm)], batch,
        acc.network.output_shape().as_tuple(), results, done_at, sim))

    total = sim.run(max_cycles=max_cycles)
    return SimulationResult(
        outputs=results,
        total_cycles=total,
        image_done_cycles=done_at,
        pe_busy_cycles={pe.name: sim.busy_cycles(pe.name)
                        for pe in acc.pes},
        pe_blocked_cycles={pe.name: sim.blocked_cycles(pe.name)
                           for pe in acc.pes},
        channel_max_occupancy={ch.name: ch.max_occupancy
                               for ch in sim.channels},
    )
