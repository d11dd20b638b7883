"""Span tracing of the program's layers, from the benchmark's side.

Only the traced run (``--trace 1``) installs these wrappers.  Each
wrapped call records a span: name, host start and end, the index of the
enclosing span, and the id of the request (or build round) the replay
loop was working on.  Spans stay in memory and are written out when the
run ends.  Aggregates are kept online per span name:

* ``calls`` and ``total`` (inclusive seconds);
* ``self`` — duration minus the time covered by child spans;
* ``outer`` — inclusive seconds of spans with no same-named ancestor,
  so a layer that calls itself is not counted twice.

:data:`TARGETS` lists every wrapped entry point by layer.  A target the
program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from patching import Patcher

__all__ = ["OBSERVED", "TARGETS", "Tracer", "layer_metrics"]

#: span name -> public entry points it wraps.
TARGETS: dict[str, tuple[str, ...]] = {
    # serve
    "serve.submit": ("repro.serve.server:InferenceServer.submit",),
    "serve.pump": ("repro.serve.server:InferenceServer.pump",
                   "repro.serve.server:InferenceServer.drain"),
    "serve.admit": ("repro.serve.tenants:AdmissionController.admit",),
    "serve.batcher": ("repro.serve.batcher:DynamicBatcher.offer",
                      "repro.serve.batcher:DynamicBatcher.due",
                      "repro.serve.batcher:DynamicBatcher.drain",
                      "repro.serve.batcher:DynamicBatcher.next_deadline"),
    # fleet
    "fleet.submit": ("repro.fleet.manager:FleetManager.submit",),
    # runtime
    "runtime.enqueue_task": (
        "repro.runtime.opencl:CommandQueue.enqueue_task",),
    "runtime.buffer_io": (
        "repro.runtime.opencl:CommandQueue.enqueue_write_buffer",
        "repro.runtime.opencl:CommandQueue.enqueue_read_buffer"),
    # hw
    "hw.estimate_performance": ("repro.hw.perf:estimate_performance",),
    "hw.build_accelerator": ("repro.hw.accelerator:build_accelerator",),
    # nn
    "nn.engine_init": ("repro.nn.engine:ReferenceEngine.__init__",),
    "nn.run_batch": ("repro.nn.engine:ReferenceEngine.run_batch",),
    # obs
    "obs.metric_update": ("repro.obs.metrics:Counter.inc",
                          "repro.obs.metrics:Gauge.set",
                          "repro.obs.metrics:Gauge.inc",
                          "repro.obs.metrics:Gauge.dec",
                          "repro.obs.metrics:Histogram.observe",
                          "repro.obs.metrics:Summary.observe"),
    # dse
    "dse.explore": ("repro.dse.explorer:explore",),
    "dse.evaluate": ("repro.dse.evaluator:CachedEvaluator.evaluate",),
    # frontend
    "frontend.input": (
        "repro.frontend.zoo:tc1_model",
        "repro.frontend.zoo:lenet_model",
        "repro.frontend.zoo:cifar10_model",
        "repro.frontend.zoo:vgg16_model",
        "repro.frontend.weights:WeightStore.initialize",
        "repro.frontend.weights:WeightStore.save",
        "repro.frontend.weights:WeightStore.load",
        "repro.frontend.condor_format:save_condor_json",
        "repro.frontend.condor_format:load_condor_json"),
    # analysis
    "analysis.check": ("repro.analysis.pipeline:AnalysisPipeline.run",),
    # codegen
    "codegen.sources": ("repro.codegen.bundle:generate_sources",
                        "repro.codegen.host:generate_host_source"),
    # toolchain
    "toolchain.hls": ("repro.toolchain.hls:VivadoHLS.synthesize",
                      "repro.toolchain.assemble:build_network_ip"),
    "toolchain.link": ("repro.toolchain.sdaccel:generate_kernel_xml",
                       "repro.toolchain.sdaccel:package_xo",
                       "repro.toolchain.sdaccel:xocc_link"),
    # cloud
    "cloud.afi": ("repro.cloud.client:AWSSession.upload",
                  "repro.cloud.client:AWSSession.create_fpga_image",
                  "repro.cloud.client:AWSSession.wait_for_afi",
                  "repro.cloud.afi:AFIService.create_fpga_image",
                  "repro.cloud.afi:AFIService.wait_until_available"),
    # sim
    "sim.simulate": ("repro.sim.dataflow:simulate_accelerator",),
}


#: counts read off traced calls: span name -> ((count, getter), ...),
#: ``getter(args, result)``
OBSERVED = {
    "fleet.submit": (("attempts", lambda args, result: result.attempts),),
    "nn.run_batch": (("rows", lambda args, result: len(args[1])),),
    "dse.explore": (
        ("dse_hits", lambda args, result: result.cache_hits),
        ("dse_misses", lambda args, result: result.cache_misses)),
    "sim.simulate": (
        ("sim_cycles", lambda args, result: result.total_cycles),),
}


class Tracer:
    """In-memory span recorder with online per-name aggregates."""

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        #: (name, start, end, parent index or -1, request id)
        self.spans: list[tuple | None] = []
        self.dropped = 0
        self.request_id: int = -1
        #: span name -> [calls, total, self, outer, open depth]
        self._records: dict[str, list] = {}
        #: free-form counts read off arguments and return values
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        #: while True, wrapped calls run untraced (output checks)
        self.paused = False
        self._patcher = Patcher()
        self.installed: list[str] = []

    def _column(self, column: int) -> dict[str, float]:
        table = defaultdict(float)
        for name, record in self._records.items():
            table[name] = record[column]
        return table

    @property
    def calls(self) -> dict[str, float]:
        return self._column(0)

    @property
    def total(self) -> dict[str, float]:
        return self._column(1)

    @property
    def self_time(self) -> dict[str, float]:
        return self._column(2)

    @property
    def outer(self) -> dict[str, float]:
        return self._column(3)

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped in a span named ``name``."""
        stack = self._stack
        spans = self.spans
        keep = self.keep
        perf = time.perf_counter
        record = self._records.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        observed = OBSERVED.get(name, ())
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            if index < keep:
                spans.append(None)
            else:
                index = -1
                self.dropped += 1
            record[4] += 1
            frame = [0.0, index]  # child seconds, span index
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                record[4] -= 1
                if record[4] == 0:
                    record[3] += duration
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent,
                                    self.request_id)
            for key, getter in observed:
                counts[key] += getter(args, result)
            return result

        return traced

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` that exists."""
        for name, targets in TARGETS.items():
            for target in targets:
                if self._patcher.wrap(
                        target, lambda fn, name=name: self.span(name, fn)):
                    self.installed.append(target)

    def wrap_instance(self, obj: object, attr: str, name: str) -> None:
        """Trace one bound method of one object (e.g. the fleet's
        golden engine), leaving other instances alone."""
        self._patcher.set(obj, attr, self.span(name, getattr(obj, attr)))

    def remove(self) -> None:
        self._patcher.restore()

    @contextlib.contextmanager
    def pause(self):
        """Run the body untraced (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "dropped": self.dropped,
            "installed": self.installed,
            "spans": [s for s in self.spans if s is not None],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def layer_metrics(tracer: Tracer, before: dict, after: dict, ops: int,
                  seconds: float, untraced: tuple) -> dict:
    """The per-layer metrics of a traced segment of ``ops`` operations
    over ``seconds``.

    ``before``/``after`` are the workload's program-side counters at the
    segment's ends; ``untraced`` is ``(ops, seconds)`` of the untraced
    part before it.  A layer the workload does not call reads 0.
    """
    calls, total, own, outer, counts = (
        tracer.calls, tracer.total, tracer.self_time, tracer.outer,
        tracer.counts)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    submits = calls["serve.submit"]
    flushes = delta.get("flushes", 0)
    fleet_submits = calls["fleet.submit"]
    tasks = calls["runtime.enqueue_task"]
    kreq = ops / 1e3
    traced_rate = ratio(ops, seconds)
    untraced_rate = ratio(*untraced)
    hits = delta.get("plan_hits", 0)
    dse_hits = counts["dse_hits"]
    return {
        "serve.submit_self_us": ratio(own["serve.submit"], submits, 1e6),
        "serve.admit_us": ratio(total["serve.admit"],
                                calls["serve.admit"], 1e6),
        "serve.batcher_us": ratio(total["serve.batcher"], submits, 1e6),
        "serve.batch_fill_share": ratio(
            delta.get("rows", 0) - delta.get("padded", 0),
            delta.get("rows", 0)),
        "serve.slo_flush_share": ratio(delta.get("slo_flushes", 0),
                                       flushes),
        "fleet.submit_self_us": ratio(own["fleet.submit"], fleet_submits,
                                      1e6),
        "fleet.attempts_per_submit": ratio(counts["attempts"],
                                           fleet_submits),
        "fleet.golden_check_ms": ratio(total["fleet.golden"],
                                       fleet_submits, 1e3),
        "fleet.failovers": ratio(delta.get("failovers", 0), kreq),
        "fleet.reloads": ratio(delta.get("reloads", 0), kreq),
        "runtime.enqueue_task_self_us": ratio(
            own["runtime.enqueue_task"], tasks, 1e6),
        "runtime.buffer_io_us": ratio(total["runtime.buffer_io"], tasks,
                                      1e6),
        "runtime.engine_builds": ratio(calls["nn.engine_init"], kreq),
        "hw.estimate_performance_us": ratio(
            total["hw.estimate_performance"],
            calls["hw.estimate_performance"], 1e6),
        "hw.estimate_performance_calls_per_flush": ratio(
            calls["hw.estimate_performance"], flushes),
        "hw.build_accelerator_ms": ratio(
            outer["hw.build_accelerator"],
            calls["hw.build_accelerator"], 1e3),
        "nn.forward_batch_us_per_row": ratio(total["nn.run_batch"],
                                             counts["rows"], 1e6),
        "nn.plan_hit_share": ratio(
            hits, hits + delta.get("plan_misses", 0)),
        "obs.metric_update_us": ratio(total["obs.metric_update"],
                                      calls["obs.metric_update"], 1e6),
        "obs.metric_updates_per_request": ratio(
            calls["obs.metric_update"], ops),
        "dse.explore_ms": ratio(outer["dse.explore"],
                                calls["dse.explore"], 1e3),
        "dse.evaluations": ratio(calls["dse.evaluate"],
                                 calls["dse.explore"]),
        "dse.cache_hit_share": ratio(
            dse_hits, dse_hits + counts["dse_misses"]),
        "frontend.input_ms": ratio(outer["frontend.input"], ops, 1e3),
        "analysis.check_ms": ratio(outer["analysis.check"], ops, 1e3),
        "codegen.sources_ms": ratio(outer["codegen.sources"], ops, 1e3),
        "toolchain.hls_ms": ratio(outer["toolchain.hls"], ops, 1e3),
        "toolchain.link_ms": ratio(outer["toolchain.link"], ops, 1e3),
        "cloud.afi_ms": ratio(outer["cloud.afi"], ops, 1e3),
        "sim.simulate_ms": ratio(outer["sim.simulate"], ops, 1e3),
        "sim.cycles_per_host_s": ratio(counts["sim_cycles"],
                                       outer["sim.simulate"]),
        # every round simulates the same images: the mean is exact
        "sim.total_cycles": ratio(counts["sim_cycles"], ops),
        "trace.traced_ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_share": 1.0 - ratio(traced_rate, untraced_rate),
    }
