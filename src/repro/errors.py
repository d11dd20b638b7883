"""Exception hierarchy for the Condor reproduction.

Every error raised by :mod:`repro` derives from :class:`CondorError`, so
callers can catch a single base class at the flow boundary.  Sub-hierarchies
mirror the framework tiers described in the paper (frontend / core logic /
backend) plus the simulated infrastructure (toolchain, cloud, runtime).
"""

from __future__ import annotations


class CondorError(Exception):
    """Base class for all errors raised by the framework."""


# ---------------------------------------------------------------------------
# Frontend tier
# ---------------------------------------------------------------------------


class FrontendError(CondorError):
    """Errors raised while ingesting user input (models, weights, options)."""


class ParseError(FrontendError):
    """A model file could not be parsed.

    Carries optional ``line``/``column`` information for text formats.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, source: str | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (
                f", column {column}" if column is not None else "")
        if source:
            location += f" in {source}"
        super().__init__(message + location)
        self.line = line
        self.column = column
        self.source = source


class WireFormatError(ParseError):
    """Malformed protobuf wire data (binary ``caffemodel``)."""


class SchemaError(FrontendError):
    """A message does not conform to the Caffe schema subset."""


class UnsupportedLayerError(FrontendError):
    """The input network uses a layer type Condor cannot map to hardware."""

    def __init__(self, layer_type: str, layer_name: str = ""):
        name = f" (layer {layer_name!r})" if layer_name else ""
        super().__init__(f"unsupported layer type {layer_type!r}{name}")
        self.layer_type = layer_type
        self.layer_name = layer_name


class WeightsError(FrontendError):
    """Weight/bias blobs are missing or have the wrong shape."""


# ---------------------------------------------------------------------------
# Core IR
# ---------------------------------------------------------------------------


class IRError(CondorError):
    """Errors in the internal network representation."""


class ShapeError(IRError):
    """Shape inference failed (incompatible layer dimensions)."""


class ValidationError(IRError):
    """The network graph violates a structural invariant."""


# ---------------------------------------------------------------------------
# Hardware generation
# ---------------------------------------------------------------------------


class HardwareError(CondorError):
    """Errors while constructing the spatial accelerator."""


class MappingError(HardwareError):
    """A layer clustering / parallelism configuration is infeasible."""


class ResourceError(HardwareError):
    """The design does not fit on the selected device."""

    def __init__(self, message: str, *, resource: str | None = None,
                 required: float | None = None, available: float | None = None):
        if resource is not None and required is not None:
            message += (f" [{resource}: required {required:g},"
                        f" available {available:g}]")
        super().__init__(message)
        self.resource = resource
        self.required = required
        self.available = available


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class SimulationError(CondorError):
    """Errors raised by the discrete-event simulator."""


class DeadlockError(SimulationError):
    """The dataflow graph deadlocked (all processes blocked)."""


# ---------------------------------------------------------------------------
# Benchmarking
# ---------------------------------------------------------------------------


class BenchError(CondorError):
    """Errors from the ``condor bench`` performance harness: malformed
    benchmark files, self-check failures (a fast path disagreeing with
    its baseline), or unknown benchmark operations."""


# ---------------------------------------------------------------------------
# Toolchain (simulated Vivado / SDAccel)
# ---------------------------------------------------------------------------


class ToolchainError(CondorError):
    """Errors from the simulated Xilinx toolchain."""


class HLSError(ToolchainError):
    """Vivado HLS synthesis (simulated) failed."""


class IPIntegratorError(ToolchainError):
    """Block-design construction or validation failed."""


class LinkError(ToolchainError):
    """The xocc link stage failed (resources / timing / interface)."""


class PackagingError(ToolchainError):
    """Packaging an artifact (IP, .xo, .xclbin) failed."""


class ArtifactError(ToolchainError):
    """An artifact container is malformed or of an unexpected kind."""


# ---------------------------------------------------------------------------
# Runtime + cloud
# ---------------------------------------------------------------------------


class RuntimeAPIError(CondorError):
    """Errors from the OpenCL-flavoured host runtime."""


class CloudError(CondorError):
    """Errors from the simulated AWS services."""


class S3Error(CloudError):
    """Object-store failures (missing bucket/key, etc.)."""


class AFIError(CloudError):
    """AFI service failures (bad state transitions, unknown ids)."""


class InstanceError(CloudError):
    """F1 instance / slot management failures."""


class DeviceLostError(RuntimeAPIError):
    """An FPGA card stopped responding (crashed, powered off, or its
    whole instance was lost).  The device stays dead until it is
    reprogrammed (an AFI re-load); the fleet layer treats this as a
    slot failure and fails the in-flight work over to a healthy slot."""


class WatchdogTimeoutError(RuntimeAPIError):
    """A kernel invocation exceeded its watchdog deadline on the
    virtual clock — a hung or pathologically slow device.  The fleet
    layer kills the invocation, records a slot failure and retries the
    work elsewhere."""


class ScrubMismatchError(RuntimeAPIError):
    """A scrub pass caught silent corruption on a slot: either the
    loaded weight buffer's digest no longer matches the golden digest
    recorded at AFI load (an SEU bit-flip), or a probe inference
    diverged from the reference engine's golden result.  The triggering
    submission's output is discarded and retried after repair."""


# ---------------------------------------------------------------------------
# Resilience (retry / circuit breaking / checkpointing)
# ---------------------------------------------------------------------------


class TransientError(CondorError):
    """Infrastructure weather: an error expected to clear on retry.

    Raised by the simulated cloud/toolchain boundaries for conditions
    that are not the caller's fault (payload corrupted in transit,
    injected chaos faults, ...).  :class:`repro.resilience.RetryPolicy`
    treats these — and only these — as retryable.
    """


class CircuitOpenError(CondorError):
    """A circuit breaker is open: the boundary failed repeatedly and
    calls are rejected until the recovery window elapses."""

    def __init__(self, boundary: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"circuit open for boundary {boundary!r}{detail}")
        self.boundary = boundary


class CheckpointError(CondorError):
    """A flow checkpoint is unreadable or inconsistent."""


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


class AnalysisError(CondorError):
    """The static analyzer found ERROR-severity diagnostics.

    Raised by the flow's analysis gate (not by the passes themselves —
    they report).  Carries the report so callers can render it.
    """

    def __init__(self, message: str, *, report=None):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Flow / DSE
# ---------------------------------------------------------------------------


class FlowError(CondorError):
    """A step of the end-to-end automation flow failed."""

    def __init__(self, step: str, message: str):
        super().__init__(f"step {step!r}: {message}")
        self.step = step


class DSEError(CondorError):
    """Design-space exploration failed (e.g. no feasible configuration)."""


# ---------------------------------------------------------------------------
# Fleet (health-managed multi-device execution)
# ---------------------------------------------------------------------------


class FleetError(CondorError):
    """The fleet could not complete a submission: no healthy slot was
    available, or the failover budget was exhausted.  Degradation, not
    a hang — the caller always gets an answer or this error."""


# ---------------------------------------------------------------------------
# Serving (multi-tenant dynamic batching over the fleet)
# ---------------------------------------------------------------------------


class ServeError(CondorError):
    """The serving layer is misconfigured or misused: unknown tenants,
    invalid bucket/SLO settings, or a request malformed in a way that
    is the caller's bug rather than load weather."""


class ShedError(ServeError):
    """A request was refused by admission control — typed load
    shedding.  The tenant's token bucket is empty (``reason="quota"``)
    or the request queue hit its depth bound (``reason="queue"``).  The
    caller gets an immediate, explicit back-off signal instead of an
    unbounded queue."""

    def __init__(self, tenant: str, reason: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(
            f"request from tenant {tenant!r} shed ({reason}){detail}")
        self.tenant = tenant
        self.reason = reason
