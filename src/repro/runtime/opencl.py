"""The simulated OpenCL host API.

The shape of the API follows the OpenCL C++ bindings the generated host
code uses (reduced to what a single-kernel accelerator needs).  A
``SimDevice`` stands in for one FPGA; programming it with an xclbin
reconstructs the Condor model from the embedded ``NETW`` section.

Execution modes (``CommandQueue(..., emulation=...)``):

``"event"``
    run the discrete-event dataflow simulator — functional + cycle data;
``"fast"``
    run the numpy reference engine for outputs and the closed-form model
    for timing (what large-batch sweeps use).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeviceLostError, RuntimeAPIError
from repro.frontend.condor_format import model_from_json
from repro.frontend.weights import WeightStore
from repro.hw.accelerator import build_accelerator
from repro.hw.perf import estimate_performance
from repro.hw.resources import Device, device_for_board
from repro.nn.engine import ReferenceEngine
from repro.resilience.faults import active_plan
from repro.toolchain.xclbin import Xclbin, read_xclbin
from repro.util.logging import get_logger

_log = get_logger("runtime")


class SimDevice:
    """One simulated FPGA card."""

    def __init__(self, name: str, hw: Device):
        self.name = name
        self.hw = hw
        self.programmed: Xclbin | None = None
        #: False once the card crashed or its instance was lost; kernel
        #: launches raise :class:`DeviceLostError` until reprogrammed.
        self.alive = True
        #: The fault boundary device-level chaos specs match against:
        #: ``device.<instance>.slot<k>`` on F1 slots (set by
        #: :mod:`repro.cloud.f1`), ``None`` elsewhere — plain devices
        #: are never injected.
        self.fault_boundary: str | None = None

    def program(self, xclbin: Xclbin) -> None:
        if xclbin.part != self.hw.part:
            raise RuntimeAPIError(
                f"xclbin targets {xclbin.part}, device is {self.hw.part}")
        self.programmed = xclbin
        # reprogramming (an AFI re-load) revives a crashed card
        self.alive = True

    def __repr__(self) -> str:
        return f"SimDevice({self.name!r})"


@dataclass
class Platform:
    name: str
    devices: list[SimDevice]

    def get_devices(self) -> list[SimDevice]:
        return list(self.devices)


def get_platforms(devices: list[SimDevice] | None = None) -> list[Platform]:
    """Enumerate platforms; by default one platform with one VU9P card
    (the on-premise developer setup)."""
    if devices is None:
        devices = [SimDevice("xilinx_vcu1525_dynamic_5_1",
                             device_for_board("aws-f1-xcvu9p"))]
    return [Platform(name="Xilinx (simulated)", devices=devices)]


class Context:
    def __init__(self, device: SimDevice):
        self.device = device
        self._buffers: list[Buffer] = []


class Buffer:
    """A device buffer (host-backed here)."""

    READ_ONLY = "r"
    WRITE_ONLY = "w"
    READ_WRITE = "rw"

    def __init__(self, context: Context, flags: str, size_bytes: int):
        if size_bytes <= 0:
            raise RuntimeAPIError("buffer size must be positive")
        if flags not in ("r", "w", "rw"):
            raise RuntimeAPIError(f"bad buffer flags {flags!r}")
        self.context = context
        self.flags = flags
        self.size_bytes = size_bytes
        self.data = np.zeros(size_bytes // 4, dtype=np.float32)
        #: bumped on every content change (host writes, and injected
        #: SEU corruption); lets the kernel reuse the engine (and its
        #: compiled execution plans) built from a past read of this
        #: buffer as long as the contents are unchanged
        self.generation = 0
        context._buffers.append(self)


class Program:
    """A program built from xclbin bytes; exposes its kernels."""

    def __init__(self, context: Context, binary: bytes | Xclbin):
        self.context = context
        self.xclbin = binary if isinstance(binary, Xclbin) \
            else read_xclbin(binary)
        context.device.program(self.xclbin)
        model_doc = self.xclbin.network_json
        self.model = model_from_json(model_doc)
        self.accelerator = build_accelerator(self.model)
        # honour the achieved (linked) frequency, not the requested one
        self.accelerator.frequency_hz = self.xclbin.frequency_hz
        # the accelerator is fixed from here on: launches only read these
        net = self.accelerator.network
        self.performance = estimate_performance(self.accelerator)
        self.input_shape = net.input_shape().as_tuple()
        self.input_size = int(np.prod(self.input_shape))
        self.output_size = net.output_shape().size

    def kernel_names(self) -> list[str]:
        return [self.xclbin.kernel_name]


class Kernel:
    """A kernel handle with the generated host code's argument layout:
    arg0 = input buffer, arg1 = output buffer, arg2 = weights buffer,
    arg3 = batch count (the batch the device runs and is timed on)."""

    def __init__(self, program: Program, name: str):
        if name != program.xclbin.kernel_name:
            raise RuntimeAPIError(
                f"program has no kernel {name!r} (has"
                f" {program.xclbin.kernel_name!r})")
        self.program = program
        self.name = name
        self.args: dict[int, object] = {}
        #: (weights buffer, its generation, engine) of the last "fast"
        #: mode launch — steady-state serving re-enqueues with the same
        #: weights, so the engine and its compiled pass are reused
        self._engine: tuple[Buffer, int, ReferenceEngine] | None = None

    def set_arg(self, index: int, value: object) -> None:
        if index not in (0, 1, 2, 3):
            raise RuntimeAPIError(f"kernel has no argument {index}")
        self.args[index] = value


@dataclass
class Event:
    """Profiling info of one enqueued command (modeled device time)."""

    command: str
    start_cycles: int = 0
    end_cycles: int = 0
    device_seconds: float = 0.0
    wall_seconds: float = 0.0
    extra: dict = field(default_factory=dict)


class CommandQueue:
    """In-order command queue with modeled device timing.

    Tasks on a device with a fault boundary (an F1 slot) fire the armed
    :class:`~repro.resilience.faults.FaultPlan`'s device faults: a
    hang or slowdown adds its delay to that task's ``device_seconds``,
    a crash kills the card, an SEU corrupts the weight buffer.
    """

    def __init__(self, context: Context, *, emulation: str = "fast"):
        if emulation not in ("fast", "event"):
            raise RuntimeAPIError(f"unknown emulation mode {emulation!r}")
        self.context = context
        self.emulation = emulation
        self._device_time_s = 0.0

    # -- data movement --------------------------------------------------------

    def enqueue_write_buffer(self, buffer: Buffer,
                             data: np.ndarray) -> Event:
        flat = np.asarray(data, dtype=np.float32).reshape(-1)
        if flat.size > buffer.data.size:
            raise RuntimeAPIError(
                f"write of {flat.size} floats exceeds buffer"
                f" ({buffer.data.size})")
        buffer.data[:flat.size] = flat
        buffer.generation += 1
        seconds = flat.nbytes / self.context.device.hw.ddr_bandwidth
        event = Event("write_buffer", device_seconds=seconds)
        self._device_time_s += seconds
        return event

    def enqueue_read_buffer(self, buffer: Buffer, count: int) -> np.ndarray:
        if count > buffer.data.size:
            raise RuntimeAPIError("read exceeds buffer size")
        seconds = count * 4 / self.context.device.hw.ddr_bandwidth
        self._device_time_s += seconds
        return buffer.data[:count].copy()

    # -- execution --------------------------------------------------------------

    def enqueue_task(self, kernel: Kernel, rows: int | None = None) \
            -> Event:
        """Run the accelerator over the batch in the input buffer.

        The device runs, and is timed on, the batch of kernel arg 3.
        ``rows`` (default: that batch) says how many leading rows hold
        real inputs: only those are computed and written to the output
        buffer, so pad rows a host adds to reach a device batch are
        charged their cycles but never computed.  Event emulation
        simulates every row and takes no ``rows``.
        """
        for index in (0, 1, 2, 3):
            if index not in kernel.args:
                raise RuntimeAPIError(f"kernel argument {index} not set")
        in_buf = kernel.args[0]
        out_buf = kernel.args[1]
        w_buf = kernel.args[2]
        batch = int(kernel.args[3])  # type: ignore[arg-type]
        if not isinstance(in_buf, Buffer) or not isinstance(out_buf, Buffer) \
                or not isinstance(w_buf, Buffer):
            raise RuntimeAPIError("kernel args 0..2 must be Buffers")
        if batch < 1:
            raise RuntimeAPIError("batch must be >= 1")
        rows = batch if rows is None else int(rows)
        if not 1 <= rows <= batch:
            raise RuntimeAPIError(
                f"rows must be in 1..{batch} (the batch), got {rows}")
        if rows != batch and self.emulation == "event":
            raise RuntimeAPIError(
                "event emulation simulates the whole batch; it takes"
                " no pad rows")

        device = self.context.device
        if not device.alive:
            raise DeviceLostError(
                f"device {device.name} is not available (crashed or"
                " lost); reprogram it to recover")
        delay_s = 0.0
        plan = active_plan() if device.fault_boundary is not None \
            else None
        if plan is not None:
            if plan.corrupt_device_weights(device.fault_boundary,
                                           w_buf.data):
                w_buf.generation += 1
            delay_s = plan.on_device_attempt(device.fault_boundary,
                                             device)

        program = kernel.program
        acc = program.accelerator
        net = acc.network
        images = in_buf.data[:rows * program.input_size] \
            .reshape((rows,) + program.input_shape)

        wall_start = time.perf_counter()
        if self.emulation == "event":
            from repro.sim.dataflow import simulate_accelerator
            weights = _weights_from_buffer(net, w_buf.data)
            result = simulate_accelerator(acc, weights, images)
            outputs = np.stack(result.outputs)
            cycles = result.total_cycles
        else:
            cached = kernel._engine
            if cached is not None and cached[0] is w_buf \
                    and cached[1] == w_buf.generation:
                engine = cached[2]
            else:
                weights = _weights_from_buffer(net, w_buf.data)
                engine = ReferenceEngine(net, weights)
                kernel._engine = (w_buf, w_buf.generation, engine)
            outputs = engine.forward_batch(images)
            perf = program.performance
            cycles = perf.batch_cycles(batch) + perf.config_cycles
        wall = time.perf_counter() - wall_start

        out_buf.data[:rows * program.output_size] = outputs.reshape(-1)
        seconds = cycles / acc.frequency_hz + delay_s
        self._device_time_s += seconds
        event = Event("task", end_cycles=cycles, device_seconds=seconds,
                      wall_seconds=wall,
                      extra={"batch": batch, "rows": rows,
                             "mode": self.emulation})
        _log.debug("task: batch=%d rows=%d cycles=%d (%s)", batch, rows,
                   cycles, self.emulation)
        return event

    def finish(self) -> float:
        """Barrier; returns the accumulated modeled device time."""
        return self._device_time_s


def _weights_from_buffer(net, flat: np.ndarray) -> WeightStore:
    """Unpack the flat weights buffer the datamover reads: concatenated
    per-PE blobs in network order (weights then bias per layer)."""
    store = WeightStore()
    offset = 0
    for layer in net.layers:
        for blob, shape in layer.weight_shapes(
                net.input_shape(layer)).items():
            size = int(np.prod(shape))
            store.set(layer.name, blob,
                      flat[offset:offset + size].reshape(shape))
            offset += size
    return store


def pack_weights(net, store: WeightStore) -> np.ndarray:
    """Inverse of :func:`_weights_from_buffer`: flatten a weight store in
    the datamover's layout."""
    parts = []
    for layer in net.layers:
        for blob in layer.weight_shapes(net.input_shape(layer)):
            parts.append(store.get(layer.name, blob).reshape(-1))
    if not parts:
        return np.zeros(1, dtype=np.float32)
    return np.concatenate(parts).astype(np.float32)
