"""The benchmark's workloads: three serving mixes and one build round.

Every workload has the same shape:

* ``setup()`` — program set-up charged to ``setup_s``: import, fleet
  image build and attach (serve) and a warm-up that fills the plan
  cache (serve) or runs one whole round (``build-zoo``);
* ``make_inputs()`` — the seeded inputs, generated by the benchmark and
  handed to the program (not timed, not set-up);
* ``run(seconds)`` — the timed phase, at least ``seconds`` of host time
  spent on operations; correctness is checked between operations with
  the timer stopped;
* a :class:`Outcome` with the operation counts, the per-operation host
  latencies and the modeled (virtual-time or cycle) figures.

Serve workloads replay a seeded Poisson schedule with a 3:1 tenant mix
on the virtual clock (open loop in virtual time) from one replay thread
as fast as the host allows (closed loop in host time).  Modeled figures
come from a fixed prefix of the schedule, so they depend only on the
seed, never on host speed or on where the timer stopped.
"""

from __future__ import annotations

import contextlib
import math
import resource
import shutil
import tempfile
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import Calibrator

__all__ = ["Outcome", "make_workload"]


@dataclass
class Outcome:
    """What one timed phase did."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    shed: int = 0
    wrong: int = 0
    #: host seconds spent on operations (timer stopped for checks)
    seconds: float = 0.0
    #: host seconds per completed operation, in completion order
    latencies: array = field(default_factory=lambda: array("d"))
    #: (timed seconds, completed operations, machine speed factor) at
    #: slice boundaries, starting at zeros; end-to-end host metrics are
    #: medians over the slices, each normalized by its own speed factor
    #: (see calibration.py)
    marks: list = field(default_factory=lambda: [(0.0, 0, 1.0)])
    calibration: Calibrator = field(default_factory=Calibrator)
    #: calibration totals (seconds, chunks) at the last mark
    _calibrated: tuple = field(default=(0.0, 0), init=False, repr=False)
    #: process peak RSS once a fixed amount of work is done, so a
    #: faster program that serves more requests in the same host time
    #: does not read as using more memory
    peak_rss_mb: float = 0.0
    modeled: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def mark(self, seconds: float, factor: float | None = None) -> None:
        """Close a slice at ``seconds`` of timed host time; ``factor``
        is its machine speed, by default that of the calibration chunks
        run since the last mark (of the whole run if there were none)."""
        cal = self.calibration
        if factor is None:
            seconds0, chunks0 = self._calibrated
            if cal.chunks > chunks0:
                factor = Calibrator.factor(cal.chunks - chunks0,
                                           cal.seconds - seconds0)
            else:
                factor = Calibrator.factor(cal.chunks, cal.seconds) \
                    if cal.chunks else 1.0
            self._calibrated = (cal.seconds, cal.chunks)
        self.marks.append((seconds, len(self.latencies), factor))

    def sample_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @property
    def errors(self) -> int:
        return self.failed + self.shed + self.wrong


# -- serving ------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    name: str
    model: str
    rate_rps: float
    slo_s: float = 0.010
    #: FleetConfig.scrub_every (0 = scrubbing off)
    scrub_every: int = 0
    #: FleetConfig.recovery_s (the quarantine before a recovery probe)
    recovery_s: float = 240.0
    #: re-arm recoverable device faults every N requests (0 = never)
    fault_every: int = 0
    #: requests whose virtual latencies give the modeled figures
    modeled_requests: int = 4000
    instances: int = 2
    instance_type: str = "f1.4xlarge"
    image_pool: int = 32


class ServeWorkload:
    """A seeded request schedule replayed through ``InferenceServer``."""

    #: completed requests per output check (the timer stops for it)
    CHECK_EVERY = 2048
    #: timed host seconds per measurement slice
    SLICE_S = 1.0
    #: requests between calibration chunks (the timer stops for them)
    CALIBRATE_EVERY = 50
    #: arrivals generated per schedule chunk
    CHUNK = 1 << 16
    #: set-up normalizes none of itself (see BuildZooWorkload)
    setup_calibrated = (0.0, 0.0, 0.0)

    def __init__(self, spec: ServeSpec, seed: int):
        self.spec = spec
        self.seed = seed

    # -- set-up (charged to setup_s) -----------------------------------------

    def setup(self) -> None:
        from repro.fleet import FleetConfig
        from repro.resilience.clock import VirtualClock
        from repro.serve import (
            DEFAULT_TENANTS,
            InferenceServer,
            ServeConfig,
            build_serving_fleet,
        )

        spec = self.spec
        self.clock = VirtualClock()
        self.fleet, _ = build_serving_fleet(
            spec.model, instances=spec.instances,
            instance_type=spec.instance_type,
            config=FleetConfig(scrub_every=spec.scrub_every,
                               recovery_s=spec.recovery_s),
            clock=self.clock, weight_seed=self.seed)
        self.server = InferenceServer(
            self.fleet, DEFAULT_TENANTS,
            config=ServeConfig(name=spec.name, slo_s=spec.slo_s),
            clock=self.clock)
        # warm-up: every slot runs every bucket once, so each slot's
        # engine has compiled a plan per bucket before timing starts
        shape = self.fleet.net.input_shape().as_tuple()
        warm = np.zeros((max(self.server.batcher.buckets),) + shape,
                        dtype=np.float32)
        for bucket in self.server.batcher.buckets:
            for _ in range(len(self.fleet.slots)):
                self.fleet.submit(warm[:bucket])

    # -- inputs -------------------------------------------------------------

    def make_inputs(self) -> None:
        from repro.frontend.weights import WeightStore
        from repro.nn.engine import ReferenceEngine
        from repro.serve import DEFAULT_TENANTS

        spec = self.spec
        net = self.fleet.net
        self._rng = np.random.default_rng(self.seed)
        shape = net.input_shape().as_tuple()
        self.pool = self._rng.standard_normal(
            (spec.image_pool,) + shape).astype(np.float32)
        self.tenants = [t.name for t in DEFAULT_TENANTS]
        weights = np.array([t.weight for t in DEFAULT_TENANTS])
        self._tenant_p = weights / weights.sum()
        self.arrivals = np.zeros(0)
        self.tenant_of = np.zeros(0, dtype=np.int64)
        self.image_of = np.zeros(0, dtype=np.int64)
        self._extend_schedule()
        # the independent oracle for the output check: an unplanned
        # engine over the weights the fleet was loaded with
        oracle = ReferenceEngine(
            net, WeightStore.initialize(net, seed=self.seed),
            use_plans=False)
        self.expected = oracle.forward_batch(self.pool).reshape(
            spec.image_pool, -1).view(np.uint32)
        # enough requests that every modeled request has flushed before
        # the run stops: arrivals up to two SLOs past the last of them
        horizon = self.arrivals[spec.modeled_requests - 1] + 2 * spec.slo_s
        while self.arrivals[-1] <= horizon:
            self._extend_schedule()
        self.min_requests = int(np.searchsorted(self.arrivals, horizon,
                                                side="right")) + 1

    def _extend_schedule(self) -> None:
        rng = self._rng
        n = self.CHUNK
        start = self.arrivals[-1] if self.arrivals.size else self.clock.now
        gaps = rng.exponential(1.0 / self.spec.rate_rps, n)
        self.arrivals = np.concatenate(
            [self.arrivals, start + np.cumsum(gaps)])
        self.tenant_of = np.concatenate(
            [self.tenant_of, rng.choice(len(self.tenants), n,
                                        p=self._tenant_p)])
        self.image_of = np.concatenate(
            [self.image_of, rng.integers(self.spec.image_pool, size=n)])

    # -- the timed phase ----------------------------------------------------

    def run(self, seconds: float, tracer=None,
            on_slice=None) -> Outcome:
        """Replay the schedule for ``seconds`` of host time, calling
        ``on_slice(outcome)`` at every slice boundary."""
        from repro.errors import ShedError
        from repro.resilience.boundary import inject_faults

        spec = self.spec
        server = self.server
        batcher = server.batcher
        clock = self.clock
        perf = time.perf_counter
        out = Outcome()
        self._out = out
        m = spec.modeled_requests
        self._arrival_m = np.zeros(m)
        self._completion_m = np.full(m, np.nan)
        self._done: list = []
        pending: deque = deque()
        latencies = out.latencies
        faults = contextlib.ExitStack()
        tenants = self.tenants
        pool = self.pool

        def settle(now_host: float) -> None:
            while pending:
                request, index, t0 = pending[0]
                if request.output is None and request.error is None:
                    return
                pending.popleft()
                latencies.append(now_host - t0)
                self._done.append((index, request))

        calibration = out.calibration
        i = 0
        elapsed = 0.0
        next_mark = self.SLICE_S
        next_calibration = 0
        segment = perf()
        try:
            while True:
                if i >= self.arrivals.size:
                    self._extend_schedule()
                if spec.fault_every and i % spec.fault_every == 0:
                    faults.close()
                    faults.enter_context(inject_faults(
                        self._weather(i // spec.fault_every)))
                when = float(self.arrivals[i])
                while True:
                    deadline = batcher.next_deadline()
                    if deadline is None or deadline > when:
                        break
                    if deadline > clock.now:
                        clock.sleep(deadline - clock.now)
                    server.pump(deadline)
                    settle(perf())
                if when > clock.now:
                    clock.sleep(when - clock.now)
                if tracer is not None:
                    tracer.request_id = i
                out.attempted += 1
                t0 = perf()
                try:
                    request = server.submit(
                        tenants[self.tenant_of[i]],
                        pool[self.image_of[i]], now=when)
                except ShedError:
                    out.shed += 1
                else:
                    pending.append((request, i, t0))
                    settle(perf())
                i += 1
                if i == self.min_requests:
                    out.sample_rss()
                if pending:
                    continue
                # nothing in flight: a safe point to stop the timer
                now = perf()
                total = elapsed + (now - segment)
                if i >= next_calibration:
                    calibration.run()
                    next_calibration = i + self.CALIBRATE_EVERY
                    elapsed, segment = total, perf()
                if total >= next_mark:
                    out.mark(total)
                    next_mark = total + self.SLICE_S
                    if on_slice is not None:
                        on_slice(out)
                        elapsed, segment = total, perf()
                if total >= seconds and i >= self.min_requests:
                    elapsed = total
                    break
                if len(self._done) >= self.CHECK_EVERY:
                    self._check()
                    elapsed, segment = total, perf()
        finally:
            faults.close()
        out.seconds = elapsed
        if out.marks[-1][1] < len(latencies):
            out.mark(elapsed)
        # untimed tail: the last partial batches flush at their SLO
        # deadlines, as they would with no further arrivals
        with tracer.pause() if tracer is not None \
                else contextlib.nullcontext():
            while True:
                deadline = batcher.next_deadline()
                if deadline is None:
                    break
                if deadline > clock.now:
                    clock.sleep(deadline - clock.now)
                server.pump(deadline)
        for request, index, _ in pending:
            self._done.append((index, request))
        self._check()
        out.modeled = self._modeled()
        return out

    def _weather(self, index: int):
        """The ``index``-th fault plan: recoverable device weather,
        keeping the kinds that rewrite weights or move work (SEU
        bit-flips, slot crashes).  Hangs and slow devices are dropped:
        they advance the shared virtual clock by minutes, which on a
        seconds-long schedule stalls quarantine recovery until every
        slot is lost."""
        from repro.resilience.faults import FaultKind, FaultPlan

        plan = FaultPlan.random(self.seed * 1_000_003 + index,
                                boundaries=(), include_devices=True)
        keep = (FaultKind.BITFLIP, FaultKind.SLOT_CRASH)
        return FaultPlan([s for s in plan.specs if s.kind in keep],
                         seed=plan.seed)

    def _check(self) -> None:
        """Compare finished requests bit-for-bit with the oracle."""
        out = self._out
        done = self._done
        self._done = []
        ok = [(i, r) for i, r in done if r.output is not None]
        out.failed += len(done) - len(ok)
        if ok:
            index = np.fromiter((i for i, _ in ok), dtype=np.int64,
                                count=len(ok))
            got = np.stack([r.output.reshape(-1) for _, r in ok]) \
                .view(np.uint32)
            same = (got == self.expected[self.image_of[index]]).all(axis=1)
            out.wrong += int(len(ok) - same.sum())
            out.succeeded += int(same.sum())
        m = self.spec.modeled_requests
        for i, r in done:
            if i < m:
                self._arrival_m[i] = r.arrival_s
                if r.completion_s is not None:
                    self._completion_m[i] = r.completion_s

    def _modeled(self) -> dict:
        from repro.hw.perf import estimate_performance

        completion = self._completion_m
        done = ~np.isnan(completion)
        latency = completion[done] - self._arrival_m[done]
        start = float(self.arrivals[0])
        acc = self.fleet.slots[0].kernel.program.accelerator
        return {
            "modeled_p99_ms": float(np.percentile(latency, 99)) * 1e3,
            "modeled_rps": float(done.sum()) /
            (float(completion[done].max()) - start),
            "modeled_ii_geomean_cycles":
                float(estimate_performance(acc).ii_cycles),
        }

    def layer_counters(self) -> dict:
        """Program-side counters the per-layer metrics difference."""
        from repro.nn.plan import default_plan_cache

        stats = self.server.stats()
        fleet = self.fleet.stats()["actions"]
        plans = default_plan_cache().stats()
        return {
            "flushes": sum(stats["batches"].values()),
            "rows": sum(b * n for b, n in stats["batches"].items()),
            "padded": stats["padded_samples"],
            "slo_flushes": stats["triggers"].get("slo", 0),
            "failovers": fleet.get("failover", 0),
            "reloads": fleet.get("reload", 0),
            "plan_hits": plans["hits"],
            "plan_misses": plans["misses"],
        }

    def trace_instances(self, tracer) -> None:
        tracer.wrap_instance(self.fleet.golden, "forward_batch",
                             "fleet.golden")

    def close(self) -> None:
        pass


# -- building -----------------------------------------------------------------


class BuildZooWorkload:
    """``condor build`` with DSE on the zoo, VGG-16 DSE, two simulations.

    One operation is one round: ``CondorFlow.run(run_dse=True)`` for
    AWS-F1 on tc1, lenet and cifar10 (fresh workdir each), then
    ``dse.explore(vgg16_model())`` (model only), then
    ``simulate_accelerator`` on the tc1 and lenet designs the flows
    produced.  The seed draws the simulated images and each flow's
    requested clock (95-100% of the model's default), so modeled times
    in milliseconds differ between seeds while cycles do not.
    """

    FLOW_MODELS = ("tc1", "lenet", "cifar10")
    SIM_BATCH = {"tc1": 4, "lenet": 2}
    MIN_ROUNDS = 3
    #: calibration chunks after each of a round's six steps, and files
    #: after each step that creates files
    CALIBRATION_CHUNKS = 8
    CALIBRATION_FILES = 20
    #: share of each step's host time spent creating files, fitted on
    #: rounds timed while the file-creation speed varied fourfold: a
    #: flow writes its sources and HLS reports; DSE and simulation
    #: create none
    FILE_SHARE = {"flow": 0.5, "dse": 0.0, "sim": 0.0}

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        rng = np.random.default_rng(seed)
        self.frequency = {name: float(rng.uniform(0.95, 1.0))
                          for name in self.FLOW_MODELS}
        #: simulated images per model, drawn on first use (the shape
        #: comes from the flow's network)
        self.images: dict[str, np.ndarray] = {}

    def setup(self) -> None:
        import repro.dse  # noqa: F401
        import repro.flow.condor  # noqa: F401
        import repro.sim.dataflow  # noqa: F401

        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.workroot = Path(tempfile.mkdtemp(prefix="build-zoo-",
                                              dir=self.out_dir))
        self._reference = None
        calibration = Calibrator(self.workroot / "calibration")
        result, raw, normalized = self._timed_round(calibration)
        #: (host seconds spent calibrating, raw and normalized host
        #: seconds of the warm-up round): the warm-up is normalized
        #: step by step like the timed rounds, the rest of set-up by the
        #: calibration after it (run.timed_setup)
        self.setup_calibrated = (self._paused, raw, normalized)
        self._reference = self._verify(result)

    def make_inputs(self) -> None:
        """Inputs are drawn in the constructor: the warm-up round in
        :meth:`setup` already needs them."""

    def _round(self, between=lambda kind: None) -> dict:
        """One round; ``between(kind)`` runs after each step, with the
        step's kind (a key of :attr:`FILE_SHARE`)."""
        from repro.dse import explorer
        from repro.flow.condor import CondorFlow, FlowInputs
        from repro.frontend import zoo
        from repro.frontend.condor_format import DeploymentOption
        from repro.sim import dataflow

        flows = {}
        for name in self.FLOW_MODELS:
            model = getattr(zoo, f"{name}_model")(DeploymentOption.AWS_F1)
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-",
                                            dir=self.workroot))
            flows[name] = CondorFlow(workdir).run(FlowInputs(
                model=model, run_dse=True,
                frequency_hz=model.frequency_hz * self.frequency[name]))
            between("flow")
        vgg = explorer.explore(zoo.vgg16_model(DeploymentOption.AWS_F1))
        between("dse")
        sims = {}
        for name, batch in self.SIM_BATCH.items():
            result = flows[name]
            if name not in self.images:
                shape = result.model.network.input_shape().as_tuple()
                rng = np.random.default_rng([self.seed, batch])
                self.images[name] = rng.standard_normal(
                    (batch,) + shape).astype(np.float32)
            sims[name] = dataflow.simulate_accelerator(
                result.accelerator, result.weights, self.images[name])
            between("sim")
        return {"flows": flows, "vgg": vgg, "sims": sims}

    def _verify(self, result: dict) -> tuple | None:
        """Correctness of one round; returns its modeled fingerprint, or
        None when the round is wrong."""
        from repro.nn.engine import ReferenceEngine
        from repro.toolchain.xclbin import read_xclbin

        ok = True
        for flow in result["flows"].values():
            if flow.degraded or flow.agfi_id is None:
                ok = False
                continue
            back = read_xclbin(flow.xclbin_path.read_bytes())
            if back.network_json != flow.xclbin.network_json or \
                    back.frequency_hz != flow.xclbin.frequency_hz:
                ok = False
        for name, sim in result["sims"].items():
            flow = result["flows"][name]
            oracle = ReferenceEngine(flow.model.network, flow.weights,
                                     use_plans=False)
            ref = oracle.forward_batch(self.images[name])
            for k, output in enumerate(sim.outputs):
                err = float(np.abs(np.asarray(output).reshape(-1) -
                                   ref[k].reshape(-1)).max())
                # ablation A4's functional tolerance
                if not err < 1e-3:
                    ok = False
        fingerprint = self._fingerprint(result)
        if self._reference is not None and fingerprint != self._reference:
            ok = False
        return fingerprint if ok else None

    def _fingerprint(self, result: dict) -> tuple:
        iis = [f.dse.performance.ii_cycles
               for f in result["flows"].values()]
        iis.append(result["vgg"].performance.ii_cycles)
        latencies = []
        images = 0
        sim_seconds = 0.0
        cycles = 0
        for name, sim in result["sims"].items():
            hz = result["flows"][name].accelerator.frequency_hz
            latencies.extend(c / hz for c in sim.image_done_cycles)
            images += sim.batch
            sim_seconds += sim.total_cycles / hz
            cycles += sim.total_cycles
        return (tuple(iis), tuple(latencies), images, sim_seconds, cycles)

    def _timed_round(self, calibration: Calibrator, tracer=None):
        """One round, with ``calibration`` run after each step (timer
        stopped, untraced); returns ``(result, raw host seconds,
        normalized host seconds)``, each step normalized by the blend of
        CPU and file-creation speed its :attr:`FILE_SHARE` gives.
        Afterwards ``_paused`` holds the host seconds spent calibrating
        and ``_partial`` the raw seconds spent, also when it raised."""
        from repro.errors import CondorError

        perf = time.perf_counter
        chunks, files = self.CALIBRATION_CHUNKS, self.CALIBRATION_FILES
        step = {"raw": 0.0, "normalized": 0.0, "paused": 0.0}

        def between(kind: str) -> None:
            paused = perf()
            took = paused - step["start"]
            share = self.FILE_SHARE[kind]
            with tracer.pause() if tracer is not None \
                    else contextlib.nullcontext():
                speed = Calibrator.factor(chunks, calibration.run(chunks))
                if share:
                    speed = Calibrator.blend(speed, Calibrator.file_factor(
                        files, calibration.run_files(files)), share)
            step["raw"] += took
            step["normalized"] += took * speed
            step["start"] = perf()
            step["paused"] += step["start"] - paused

        step["start"] = perf()
        try:
            result = self._round(between)
        except CondorError:
            self._partial = step["raw"] + perf() - step["start"]
            raise
        finally:
            self._paused = step["paused"]
        self._partial = step["raw"]
        return result, step["raw"], step["normalized"]

    def run(self, seconds: float, tracer=None,
            on_slice=None) -> Outcome:
        """Run rounds for ``seconds`` of host time (at least
        ``MIN_ROUNDS``); each round is one slice, normalized step by
        step (see :meth:`_timed_round`)."""
        from repro.errors import CondorError

        out = Outcome(calibration=Calibrator(self.workroot / "calibration"))
        while out.seconds < seconds or out.attempted < self.MIN_ROUNDS:
            if tracer is not None:
                tracer.request_id = out.attempted
            out.attempted += 1
            try:
                result, took, normalized = self._timed_round(
                    out.calibration, tracer)
            except CondorError as exc:
                out.seconds += self._partial
                out.failed += 1
                out.notes.setdefault("errors", []).append(
                    f"{type(exc).__name__}: {exc}")
                continue
            out.seconds += took
            out.latencies.append(took)
            out.mark(out.seconds, normalized / took)
            if out.attempted == self.MIN_ROUNDS:
                out.sample_rss()
            if on_slice is not None:
                on_slice(out)
            with tracer.pause() if tracer is not None \
                    else contextlib.nullcontext():
                if self._verify(result) is None:
                    out.wrong += 1
                else:
                    out.succeeded += 1
                self._cleanup()
        iis, latencies, images, sim_seconds, _ = self._reference
        out.modeled = {
            "modeled_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
            "modeled_rps": images / sim_seconds,
            "modeled_ii_geomean_cycles":
                math.exp(sum(math.log(v) for v in iis) / len(iis)),
        }
        return out

    def _cleanup(self) -> None:
        for child in self.workroot.iterdir():
            if child.name != "calibration":
                shutil.rmtree(child, ignore_errors=True)

    def layer_counters(self) -> dict:
        return {}

    def trace_instances(self, tracer) -> None:
        pass

    def close(self) -> None:
        shutil.rmtree(self.workroot, ignore_errors=True)


# -- registry -----------------------------------------------------------------

SERVE_SPECS = {
    "serve-tc1-saturate": ServeSpec(
        "serve-tc1-saturate", "tc1", rate_rps=2000.0,
        modeled_requests=8000),
    "serve-lenet-slo": ServeSpec(
        # one f1.4xlarge (two lanes): enough lane contention that the
        # modeled tail is not pinned to SLO + bucket device time
        "serve-lenet-slo", "lenet", rate_rps=500.0, instances=1,
        modeled_requests=4000),
    "serve-tc1-faults": ServeSpec(
        # a 10 ms SLO pins the modeled p99 to SLO + bucket device time
        # at 1000 req/s; the default 240 s quarantine is sized for hours
        # of drill weather, and on a schedule seconds long it keeps
        # crashed slots out until none is left
        "serve-tc1-faults", "tc1", rate_rps=1000.0, slo_s=0.020,
        scrub_every=1, recovery_s=0.5, fault_every=250,
        modeled_requests=8000),
}


def make_workload(name: str, seed: int, out_dir: Path):
    if name == "build-zoo":
        return BuildZooWorkload(seed, out_dir)
    return ServeWorkload(SERVE_SPECS[name], seed)
