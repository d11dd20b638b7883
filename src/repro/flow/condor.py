"""The Condor flow driver.

Orchestrates §3.3's steps over the framework tiers and records an artifact
per step under a working directory, so a run leaves the same trail the real
tool leaves (generated sources, reports, the ``.xo``, the ``.xclbin``, the
default host code, and — for cloud deployments — the AFI identifiers).
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.analysis import AnalysisContext, AnalysisPipeline
from repro.cloud.client import AWSSession
from repro.codegen.bundle import generate_sources
from repro.codegen.host import generate_host_source
from repro.dse.explorer import DSEResult, explore
from repro.errors import (
    AnalysisError,
    CircuitOpenError,
    CloudError,
    CondorError,
    FlowError,
    TransientError,
)
from repro.frontend.caffe import load_caffemodel, load_prototxt
from repro.frontend.caffe.converter import convert_caffe_model
from repro.frontend.condor_format import (
    CondorModel,
    DeploymentOption,
    condor_json_bytes,
    load_condor_json,
    model_from_json,
    model_to_json,
)
from repro.frontend.weights import WeightStore
from repro.hw.accelerator import build_accelerator
from repro.hw.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hw.components import Accelerator
from repro.hw.estimate import ResourceEstimate, estimate_accelerator
from repro.hw.mapping import MappingConfig, default_mapping, mapping_from_model
from repro.hw.perf import (
    AcceleratorPerformance,
    estimate_performance,
    estimate_power_watts,
)
from repro.hw.resources import device_for_board
from repro.resilience import (
    Checkpoint,
    CheckpointStore,
    breaker_states,
    chain_digest,
    file_digest,
    ledger,
)
from repro.toolchain.assemble import AssemblyResult, build_network_ip
from repro.toolchain.hls import VivadoHLS
from repro.toolchain.sdaccel import (
    XoFile,
    generate_kernel_xml,
    package_xo,
    xocc_link,
)
from repro.toolchain.vivado import VivadoIP
from repro.toolchain.xclbin import Xclbin, read_xclbin, write_xclbin
from repro.obs import (
    REGISTRY,
    TIMESERIES_NAME,
    SpanRecorder,
    build_manifest,
    obs_disabled,
    recording,
    span,
    timeseries_jsonl,
    timeseries_row,
    write_manifest,
)
from repro.util.logging import get_logger, log_context

_log = get_logger("flow")

_STEPS_STARTED = REGISTRY.counter(
    "condor_flow_steps_started_total", "Flow steps entered")
_STEPS_FAILED = REGISTRY.counter(
    "condor_flow_steps_failed_total", "Flow steps that raised")
_RUNS = REGISTRY.counter(
    "condor_flow_runs_total", "Flow runs by final status")
_STEP_SECONDS = REGISTRY.summary(
    "condor_flow_step_seconds", "Wall time per flow step")
_STEPS_SKIPPED = REGISTRY.counter(
    "condor_flow_steps_skipped_total",
    "Flow steps restored from checkpoints instead of re-running")
_DEGRADED = REGISTRY.counter(
    "condor_flow_degraded_total",
    "Flow runs that kept a local build after a cloud failure")


@dataclass
class FlowInputs:
    """What the user hands to the frontend (paper §3.1.1).

    Exactly one of ``model`` / ``condor_json`` / ``prototxt`` must be
    given; ``caffemodel`` or ``weights_dir`` supply weights (optional —
    the flow initializes pseudo-trained weights otherwise, for test runs).
    """

    model: CondorModel | None = None
    condor_json: Path | str | None = None
    prototxt: Path | str | None = None
    caffemodel: Path | str | None = None
    onnx: Path | str | None = None
    weights_dir: Path | str | None = None
    deployment: DeploymentOption | None = None
    frequency_hz: float | None = None
    board: str | None = None
    run_dse: bool = False
    #: Bucket used for AFI creation (cloud deployments).
    s3_bucket: str = "condor-afis"
    #: ``describe-fpga-images`` poll budget override for step 8
    #: (``None`` keeps the :class:`AWSSession` default).
    afi_max_polls: int | None = None


@dataclass
class StepRecord:
    name: str
    seconds: float
    #: Empty for a finished step; otherwise why it did not finish
    #: normally ("failed: ...", "degraded: ...", "restored from
    #: checkpoint").
    detail: str = ""
    #: True when the step was restored from a checkpoint, not re-run.
    skipped: bool = False


@dataclass
class FlowResult:
    """Everything a flow run produces."""

    model: CondorModel
    weights: WeightStore
    mapping: MappingConfig
    accelerator: Accelerator
    estimate: ResourceEstimate
    performance: AcceleratorPerformance
    power_watts: float
    xclbin: Xclbin
    workdir: Path
    xclbin_path: Path
    host_path: Path
    steps: list[StepRecord] = field(default_factory=list)
    dse: DSEResult | None = None
    afi_id: str | None = None
    agfi_id: str | None = None
    #: Where the run's ``telemetry.json`` manifest landed (when enabled).
    telemetry_path: Path | None = None
    #: True when the cloud tail (step 8) failed but the local build was
    #: kept — the run's manifest status is ``"partial"``.
    degraded: bool = False
    #: ``"ExcType: message"`` of the failure that caused the downgrade.
    degradation: str | None = None

    @property
    def utilization(self) -> dict[str, float]:
        return self.xclbin.resources["utilization_pct"]

    def profile_table(self) -> str:
        """Per-step wall time and share of the run (``condor profile``)."""
        from repro.util.tables import TextTable

        total = sum(s.seconds for s in self.steps)
        table = TextTable(["step", "seconds", "% of run"],
                          float_format="{:.3f}")
        for step in self.steps:
            share = 100.0 * step.seconds / total if total else 0.0
            table.add_row([step.name, step.seconds, f"{share:5.1f}"])
        table.add_row(["TOTAL", total, "100.0"])
        return table.render()

    def summary(self) -> str:
        from repro.util.tables import TextTable

        util = self.utilization
        table = TextTable(["metric", "value"])
        table.add_row(["network", self.model.network.name])
        table.add_row(["device", self.xclbin.part])
        table.add_row(["frequency",
                       f"{self.xclbin.frequency_hz / 1e6:.0f} MHz"])
        for key in ("lut", "ff", "dsp", "bram_18k"):
            table.add_row([f"{key} %", util[key]])
        table.add_row(["GFLOPS", self.performance.gflops()])
        table.add_row(["GFLOPS/W",
                       self.performance.gflops() / self.power_watts])
        if self.agfi_id:
            table.add_row(["AGFI", self.agfi_id])
        return table.render()


def _hints_from_mapping(mapping: MappingConfig) -> dict:
    """Express a mapping as per-layer Condor JSON hardware hints."""
    from repro.frontend.condor_format import LayerHints

    hints = {}
    for pe in mapping.pes:
        cluster = pe.name if len(pe.layer_names) > 1 else None
        for layer_name in pe.layer_names:
            hints[layer_name] = LayerHints(
                in_ports=pe.in_parallel, out_ports=pe.out_parallel,
                cluster=cluster)
    return hints


class CondorFlow:
    """Run the automation flow inside a working directory."""

    def __init__(self, workdir: Path | str,
                 cal: Calibration = DEFAULT_CALIBRATION,
                 aws: AWSSession | None = None,
                 telemetry: bool = True,
                 check: bool = True,
                 resume: bool = False):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cal = cal
        self.aws = aws or AWSSession()
        self.telemetry = telemetry
        #: Run the static-analysis gate before hardware generation
        #: (``condor build --no-check`` disables it).
        self.check = check
        #: Skip steps whose checkpoints are still fresh
        #: (``condor build --resume``).  Checkpoints are *written*
        #: unconditionally; this only controls whether they are read.
        self.resume = resume
        #: Writer of the workdir and record of the files the most
        #: recent :meth:`run` wrote or restored (a new one per run).
        self.checkpoints = CheckpointStore(self.workdir)
        #: Boundary calls, retries, give-ups and breaker rejections of
        #: the most recent :meth:`run`, by boundary: the difference of
        #: the process-wide resilience ledger across the run.
        self.resilience: dict[str, dict[str, int]] = {}
        #: Span recorder of the most recent :meth:`run` (telemetry on).
        self.recorder: SpanRecorder | None = None
        self._steps: list[StepRecord] = []
        #: ``timeseries.jsonl`` rows of the current :meth:`run`: one at
        #: flow start, then one per :class:`StepRecord`.  ``None`` when
        #: the run records no telemetry.
        self._rows: list[dict] | None = None

    # -- step harness ---------------------------------------------------------

    @contextlib.contextmanager
    def _step(self, name: str):
        """Run one flow step inside a telemetry span.

        The recorded :class:`StepRecord` takes its duration *from the
        span*, so ``FlowResult.steps`` and ``telemetry.json`` can never
        disagree.  Without an active recorder the span is a no-op and a
        local :func:`time.perf_counter` interval is used instead.  A
        step that raises is recorded too, with a ``failed:`` detail.
        """
        _STEPS_STARTED.inc(step=name)
        sp = None
        t0 = time.perf_counter()
        try:
            with span(f"flow.{name}") as sp, log_context(name):
                _log.info("step %s", name)
                try:
                    yield
                except FlowError:
                    raise
                except CondorError as exc:
                    raise FlowError(name, str(exc)) from exc
        except BaseException as exc:
            _STEPS_FAILED.inc(step=name)
            seconds = sp.seconds if sp is not None \
                else time.perf_counter() - t0
            self._record(StepRecord(
                name, seconds, detail=f"failed: {type(exc).__name__}:"
                                      f" {exc}"))
            raise
        seconds = sp.seconds if sp is not None \
            else time.perf_counter() - t0
        _STEP_SECONDS.observe(seconds, step=name)
        self._record(StepRecord(name, seconds))

    def _skip_step(self, name: str,
                   detail: str = "restored from checkpoint") -> None:
        """Record a step satisfied from its checkpoint."""
        _STEPS_SKIPPED.inc(step=name)
        _log.info("step %s: %s", name, detail)
        self._record(StepRecord(name, 0.0, detail=detail, skipped=True))

    def _record(self, record: StepRecord) -> None:
        """Append a step record and, when recording, its metrics row:
        every record goes through here, so a run leaves
        ``len(steps) + 1`` rows."""
        self._steps.append(record)
        if self._rows is not None:
            self._rows.append(timeseries_row(record.name))

    def _inputs_fingerprint(self, inputs: FlowInputs) -> str:
        """Root of every step's checkpoint digest chain: the run inputs
        (file contents, not paths) + flow configuration."""

        def digest_of(path: Path | str | None) -> str | None:
            # missing files are step 1's problem to report; the
            # fingerprint just needs to be computable
            if path is None or not Path(path).is_file():
                return None
            return file_digest(Path(path))

        weights_dir = None
        if inputs.weights_dir is not None:
            root = Path(inputs.weights_dir)
            if root.is_dir():
                weights_dir = sorted(
                    (p.relative_to(root).as_posix(), file_digest(p))
                    for p in root.rglob("*") if p.is_file())
        doc = {
            "model": (model_to_json(inputs.model)
                      if inputs.model is not None else None),
            "condor_json": digest_of(inputs.condor_json),
            "prototxt": digest_of(inputs.prototxt),
            "caffemodel": digest_of(inputs.caffemodel),
            "onnx": digest_of(inputs.onnx),
            "weights_dir": weights_dir,
            "deployment": (inputs.deployment.name
                           if inputs.deployment else None),
            "frequency_hz": inputs.frequency_hz,
            "board": inputs.board,
            "run_dse": inputs.run_dse,
            "s3_bucket": inputs.s3_bucket,
            "check": self.check,
            "calibration": asdict(self.cal),
        }
        return chain_digest(None, "flow-inputs",
                            json.dumps(doc, sort_keys=True))

    # -- steps ------------------------------------------------------------------

    def _input_analysis(self, inputs: FlowInputs) \
            -> tuple[CondorModel, WeightStore]:
        sources = [inputs.model, inputs.condor_json, inputs.prototxt,
                   inputs.onnx]
        if sum(s is not None for s in sources) != 1:
            raise FlowError(
                "input_analysis",
                "provide exactly one of model / condor_json / prototxt /"
                " onnx")
        weights = WeightStore()
        if inputs.model is not None:
            model = inputs.model
        elif inputs.condor_json is not None:
            model = load_condor_json(inputs.condor_json)
        elif inputs.onnx is not None:
            from repro.frontend.onnx import convert_onnx_model, load_onnx
            converted_onnx = convert_onnx_model(load_onnx(inputs.onnx))
            model = CondorModel(network=converted_onnx.network)
            weights = converted_onnx.weights
        else:
            prototxt = load_prototxt(inputs.prototxt)
            caffemodel = (load_caffemodel(inputs.caffemodel)
                          if inputs.caffemodel else None)
            converted = convert_caffe_model(prototxt, caffemodel)
            model = CondorModel(network=converted.network)
            weights = converted.weights
        if inputs.weights_dir is not None:
            weights = WeightStore.load(inputs.weights_dir)
        # deployment / board / frequency overrides
        if inputs.board or inputs.frequency_hz or inputs.deployment:
            model = CondorModel(
                network=model.network,
                board=inputs.board or model.board,
                frequency_hz=inputs.frequency_hz or model.frequency_hz,
                deployment=inputs.deployment or model.deployment,
                hints=model.hints,
            )
        if not weights.layers():
            _log.info("no weights given; initializing pseudo-trained"
                      " weights")
            weights = WeightStore.initialize(model.network)
        weights.validate(model.network)
        for filename, data in weights.files().items():
            self.checkpoints.write(f"weights/{filename}", data)
        return model, weights

    # -- the public entry point ----------------------------------------------------

    def run(self, inputs: FlowInputs) -> FlowResult:
        """Execute steps 1..7 (8 for AWS_F1 deployments).

        With ``telemetry`` enabled (the default) the whole run executes
        under a ``condor.flow`` root span and leaves a ``telemetry.json``
        manifest — plus a ``timeseries.jsonl`` with one metrics row at
        flow start and one per step — in the working directory, even
        when a step fails, so failed runs stay diagnosable.

        :attr:`resilience` counts every boundary event in the process
        while the run lasts, so runs on several caller threads at once
        see each other's events.
        """
        start = ledger.counts()
        self.checkpoints = CheckpointStore(self.workdir)
        if not self.telemetry:
            try:
                return self._pipeline(inputs)
            finally:
                self.resilience = ledger.since(start)
        self.recorder = SpanRecorder()
        self._rows = None if obs_disabled() else [timeseries_row("start")]
        started_wall = time.time()
        t0 = time.perf_counter()
        status = "error"
        error: str | None = None
        result: FlowResult | None = None
        try:
            with recording(self.recorder), \
                    span("condor.flow", workdir=str(self.workdir)):
                result = self._pipeline(inputs)
            status = "partial" if result.degraded else "ok"
            return result
        except BaseException as exc:
            # every failure mode lands in the manifest — not just
            # CondorError subclasses (a crashed run must stay diagnosable)
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self.resilience = ledger.since(start)
            _RUNS.inc(status=status)
            if self._rows:
                self.checkpoints.write(TIMESERIES_NAME,
                                       timeseries_jsonl(self._rows))
            manifest = self._build_manifest(
                result, status=status, error=error,
                started_wall=started_wall,
                seconds=time.perf_counter() - t0)
            path = write_manifest(self.workdir, manifest)
            if result is not None:
                result.telemetry_path = path

    def _build_manifest(self, result: FlowResult | None, *, status: str,
                        error: str | None, started_wall: float,
                        seconds: float) -> dict:
        run: dict = {
            "network": result.model.network.name if result else None,
            "board": result.model.board if result else None,
            "deployment": (result.model.deployment.name
                           if result and result.model.deployment else None),
            "status": status,
            "started_at": started_wall,
            "seconds": seconds,
            "workdir": str(self.workdir),
        }
        if error:
            run["error"] = error
        if result is not None and result.degraded:
            run["degraded_step"] = "8-afi-creation"
            run["degradation"] = result.degradation
        steps = [{"name": s.name, "seconds": s.seconds,
                  "detail": s.detail, "skipped": s.skipped}
                 for s in self._steps]
        snapshots: dict = {}
        if any(self.resilience.values()):
            snapshots["resilience"] = dict(self.resilience)
        # the breaker realm is process-wide and outlives this run's
        # boundary calls, so snapshot it whenever it is non-empty
        breakers = breaker_states()
        if breakers:
            snapshots.setdefault("resilience", {})["breakers"] = breakers
        snapshots["timeseries"] = {
            "path": TIMESERIES_NAME if self._rows else None,
            "samples": len(self._rows or ()),
        }
        if result is not None:
            capacity = device_for_board(result.model.board).capacity
            snapshots["resource_estimate"] = {
                "components": {name: asdict(vec) for name, vec
                               in result.estimate.components.items()},
                "total": asdict(result.estimate.total),
                "utilization_pct": result.estimate.utilization(capacity),
            }
            snapshots["performance"] = {
                "ii_cycles": result.performance.ii_cycles,
                "pipeline_latency_cycles":
                    result.performance.pipeline_latency_cycles,
                "gflops": result.performance.gflops(),
                "frequency_hz": result.xclbin.frequency_hz,
                "power_watts": result.power_watts,
            }
            if result.dse is not None:
                snapshots["dse"] = {
                    "points_explored": len(result.dse.explored),
                    "steps": result.dse.steps,
                    "best_ii_cycles": result.dse.performance.ii_cycles,
                }
            if result.afi_id:
                snapshots["afi"] = {"afi_id": result.afi_id,
                                    "agfi_id": result.agfi_id}
        return build_manifest(
            recorder=self.recorder, run=run, steps=steps,
            artifacts=self.checkpoints.listing(), snapshots=snapshots)

    def _pipeline(self, inputs: FlowInputs) -> FlowResult:
        self._steps = []
        store = self.checkpoints
        fingerprint = self._inputs_fingerprint(inputs)
        resume_ok = self.resume
        dse_result: DSEResult | None = None

        def fresh(name: str, digest: str) -> Checkpoint | None:
            """The step's reusable checkpoint, driving the resume
            cascade: the first stale/missing step re-runs everything
            after it."""
            nonlocal resume_ok
            if not resume_ok:
                return None
            checkpoint = store.valid(name, digest)
            if checkpoint is None:
                resume_ok = False
            return checkpoint

        d1 = chain_digest(fingerprint, "1-input-analysis")
        cp = fresh("1-input-analysis", d1)
        if cp is not None:
            with span("flow.restore", step="1-input-analysis"):
                model = model_from_json(cp.state["model"])
                weights = WeightStore.load(self.workdir / "weights")
            self._skip_step("1-input-analysis")
        else:
            with self._step("1-input-analysis"):
                model, weights = self._input_analysis(inputs)
                # network.condor.json is step 2's: with DSE it carries
                # the chosen mapping
                store.save("1-input-analysis", d1,
                           state={"model": model_to_json(model)})

        d2 = chain_digest(d1, "2-design-space-exploration")
        cp = fresh("2-design-space-exploration", d2)
        if cp is not None:
            with span("flow.restore",
                      step="2-design-space-exploration"):
                model = model_from_json(cp.state["model"])
                mapping = mapping_from_model(model) if model.hints \
                    else default_mapping(model.network)
            detail = "restored from checkpoint"
            if cp.state.get("used_dse"):
                # the chosen configuration lives in the model hints; the
                # search trace itself is not replayed (FlowResult.dse
                # stays None on a resumed run)
                detail += " (DSE mapping, trace not replayed)"
            self._skip_step("2-design-space-exploration", detail)
        else:
            with self._step("2-design-space-exploration"):
                if inputs.run_dse:
                    dse_result = explore(model, cal=self.cal)
                    mapping = dse_result.mapping
                    # fold the chosen configuration back into the
                    # model's hardware hints so it travels inside every
                    # downstream artifact (Condor JSON, xclbin NETW
                    # section) and the runtime reconstructs the same
                    # accelerator
                    model = CondorModel(
                        network=model.network, board=model.board,
                        frequency_hz=model.frequency_hz,
                        deployment=model.deployment,
                        hints=_hints_from_mapping(mapping))
                elif model.hints:
                    mapping = mapping_from_model(model)
                else:
                    mapping = default_mapping(model.network)
                store.write("network.condor.json",
                            condor_json_bytes(model))
                store.save(
                    "2-design-space-exploration", d2,
                    state={"used_dse": inputs.run_dse,
                           "model": model_to_json(model)})

        accelerator: Accelerator | None = None
        d_prev = d2
        if self.check:
            d2b = chain_digest(d2, "2b-static-analysis")
            d_prev = d2b
            cp = fresh("2b-static-analysis", d2b)
            if cp is not None:
                # the gate passed before on identical inputs; the
                # accelerator is rebuilt in step 3-5
                self._skip_step("2b-static-analysis")
            else:
                with self._step("2b-static-analysis"):
                    ctx = AnalysisContext(model, weights=weights,
                                          mapping=mapping)
                    report = AnalysisPipeline().run(ctx)
                    store.write("reports/analysis.txt",
                                report.render() + "\n")
                    store.write("reports/analysis.json",
                                report.to_json() + "\n")
                    _log.info("static analysis: %s",
                              report.summary_line())
                    if not report.ok:
                        raise AnalysisError(
                            f"static analysis found"
                            f" {len(report.errors)} error(s); see"
                            f" {self.workdir / 'reports' / 'analysis.txt'}"
                            " (rerun with --no-check to bypass the gate)",
                            report=report)
                    # the gate already built the design; reuse it
                    # downstream
                    accelerator = ctx.accelerator
                    store.save("2b-static-analysis", d2b)

        d35 = chain_digest(d_prev, "3-5-hardware-generation")
        cp = fresh("3-5-hardware-generation", d35)
        if cp is not None:
            with span("flow.restore", step="3-5-hardware-generation"):
                if accelerator is None:
                    accelerator = build_accelerator(model, mapping)
                estimate = estimate_accelerator(accelerator, self.cal)
                accelerator_ip = VivadoIP.from_dict(
                    cp.state["accelerator_ip"])
            self._skip_step("3-5-hardware-generation")
        else:
            with self._step("3-5-hardware-generation"):
                if accelerator is None:
                    accelerator = build_accelerator(model, mapping)
                sources = generate_sources(accelerator)
                for rel, text in sources.files.items():
                    store.write(f"sources/{rel}", text)
                hls = VivadoHLS(device_for_board(model.board).part,
                                model.frequency_hz, self.cal)
                assembly: AssemblyResult = build_network_ip(
                    accelerator, hls, self.cal)
                accelerator_ip = assembly.accelerator_ip
                estimate = estimate_accelerator(accelerator, self.cal)
                store.write("reports/resources.txt", estimate.summary(
                    device_for_board(model.board).capacity) + "\n")
                for hls_report in hls.reports:
                    store.write(
                        f"reports/hls/{hls_report.kernel}_csynth.rpt",
                        hls_report.render(model.frequency_hz))
                from repro.ir.dot import (
                    accelerator_to_dot,
                    network_to_dot,
                )
                store.write("network.dot", network_to_dot(model.network))
                store.write("accelerator.dot",
                            accelerator_to_dot(accelerator))
                store.save(
                    "3-5-hardware-generation", d35,
                    state={"accelerator_ip": accelerator_ip.to_dict()})

        d6 = chain_digest(d35, "6-sdaccel-integration")
        cp = fresh("6-sdaccel-integration", d6)
        xo_path = self.workdir / f"{accelerator.name}.xo"
        if cp is not None:
            with span("flow.restore", step="6-sdaccel-integration"):
                xo = XoFile.open(xo_path.read_bytes())
            self._skip_step("6-sdaccel-integration")
        else:
            with self._step("6-sdaccel-integration"):
                kernel_xml = generate_kernel_xml(accelerator_ip)
                store.write("kernel.xml", kernel_xml + "\n")
                xo = package_xo(accelerator_ip, kernel_xml, model=model)
                store.write(xo_path.name, xo.data)
                store.save("6-sdaccel-integration", d6)

        d7 = chain_digest(d6, "7-deployment-on-board")
        cp = fresh("7-deployment-on-board", d7)
        xclbin_path = self.workdir / f"{accelerator.name}.xclbin"
        host_path = self.workdir / "host.cpp"
        if cp is not None:
            with span("flow.restore", step="7-deployment-on-board"):
                xclbin_bytes = xclbin_path.read_bytes()
                xclbin = read_xclbin(xclbin_bytes)
                accelerator.frequency_hz = xclbin.frequency_hz
                performance = estimate_performance(accelerator,
                                                   self.cal)
                power = estimate_power_watts(accelerator, estimate,
                                             self.cal)
            self._skip_step("7-deployment-on-board")
        else:
            with self._step("7-deployment-on-board"):
                device = device_for_board(model.board)
                xclbin = xocc_link(xo, device, model.frequency_hz,
                                   self.cal)
                # serialize exactly once; step 8 uploads these bytes
                xclbin_bytes = write_xclbin(xclbin)
                store.write(xclbin_path.name, xclbin_bytes)
                accelerator.frequency_hz = xclbin.frequency_hz
                store.write(host_path.name, generate_host_source(
                    accelerator, xclbin_name=xclbin_path.name))
                performance = estimate_performance(accelerator,
                                                   self.cal)
                power = estimate_power_watts(accelerator, estimate,
                                             self.cal)
                store.save("7-deployment-on-board", d7)

        afi_id = agfi_id = None
        degraded = False
        degradation: str | None = None
        if model.deployment is DeploymentOption.AWS_F1:
            d8 = chain_digest(d7, "8-afi-creation", inputs.s3_bucket)
            cp = fresh("8-afi-creation", d8)
            if cp is not None:
                afi_id = cp.state["afi_id"]
                agfi_id = cp.state["agfi_id"]
                self._skip_step("8-afi-creation")
            else:
                try:
                    with self._step("8-afi-creation"):
                        uri_key = f"dcp/{accelerator.name}.xclbin"
                        self.aws.upload(inputs.s3_bucket, uri_key,
                                        xclbin_bytes)
                        record = self.aws.create_fpga_image(
                            name=accelerator.name,
                            bucket=inputs.s3_bucket, key=uri_key,
                            description=f"Condor accelerator for"
                                        f" {model.network.name}")
                        record = self.aws.wait_for_afi(
                            record.afi_id,
                            max_polls=inputs.afi_max_polls)
                        afi_id, agfi_id = record.afi_id, record.agfi_id
                        store.write("afi.json", json.dumps({
                            "afi_id": afi_id, "agfi_id": agfi_id,
                            "bucket": inputs.s3_bucket,
                            "key": uri_key,
                        }, indent=2) + "\n")
                        store.save("8-afi-creation", d8,
                                   state={"afi_id": afi_id,
                                          "agfi_id": agfi_id})
                except FlowError as exc:
                    cause = exc.__cause__
                    if not isinstance(cause, (CloudError,
                                              CircuitOpenError,
                                              TransientError)):
                        raise
                    # the local build is complete and valid — keep it
                    # and downgrade the run instead of discarding an
                    # hour of toolchain work over cloud weather
                    degraded = True
                    degradation = f"{type(cause).__name__}: {cause}"
                    _DEGRADED.inc()
                    _log.warning(
                        "AFI creation failed (%s); keeping the local"
                        " build and degrading to a partial result",
                        degradation)
                    # _step recorded the failure (and its row); the
                    # run goes on, so the record says what became of it
                    self._steps[-1].detail = f"degraded: {degradation}"

        return FlowResult(
            model=model, weights=weights, mapping=mapping,
            accelerator=accelerator, estimate=estimate,
            performance=performance, power_watts=power, xclbin=xclbin,
            workdir=self.workdir, xclbin_path=xclbin_path,
            host_path=host_path, steps=list(self._steps),
            dse=dse_result, afi_id=afi_id, agfi_id=agfi_id,
            degraded=degraded, degradation=degradation,
        )
