"""Run-manifest, metrics-coverage, ledger and overhead tests."""

import json
import time

import pytest

from repro.flow import CondorFlow, FlowInputs
from repro.frontend.zoo import tc1_model
from repro.obs import REGISTRY, peak_rss_bytes
from repro.obs.manifest import MANIFEST_NAME


@pytest.fixture
def run(tmp_path):
    flow = CondorFlow(tmp_path / "w")
    result = flow.run(FlowInputs(model=tc1_model()))
    return flow, result


class TestManifest:
    def test_written_into_workdir(self, run):
        flow, result = run
        path = flow.workdir / MANIFEST_NAME
        assert path.is_file()
        assert result.telemetry_path == path

    def test_step_durations_agree_with_flow_result(self, run):
        """The satellite guarantee: FlowResult and telemetry.json read
        the same spans, so the numbers are identical, not just close."""
        flow, result = run
        manifest = json.loads(result.telemetry_path.read_text())
        assert [s["name"] for s in manifest["steps"]] == \
            [s.name for s in result.steps]
        assert [s["seconds"] for s in manifest["steps"]] == \
            [s.seconds for s in result.steps]

    def test_span_tree_rooted_at_condor_flow(self, run):
        _, result = run
        manifest = json.loads(result.telemetry_path.read_text())
        (root,) = manifest["spans"]
        assert root["name"] == "condor.flow"
        child_names = [c["name"] for c in root["children"]]
        assert child_names[0] == "flow.1-input-analysis"
        assert manifest["process"]["span_count"] >= len(child_names)

    def test_process_and_host_stats(self, run):
        _, result = run
        manifest = json.loads(result.telemetry_path.read_text())
        rss = manifest["process"]["peak_rss_bytes"]
        assert rss is None or rss > 1024 * 1024
        assert manifest["host"]["python"]

    def test_resource_and_performance_snapshots(self, run):
        _, result = run
        manifest = json.loads(result.telemetry_path.read_text())
        est = manifest["resource_estimate"]
        assert "shell" in est["components"]
        assert est["total"]["dsp"] > 0
        assert set(est["utilization_pct"]) == \
            {"lut", "ff", "dsp", "bram_18k"}
        perf = manifest["performance"]
        assert perf["gflops"] == pytest.approx(result.performance.gflops())
        assert perf["ii_cycles"] == result.performance.ii_cycles

    def test_artifacts_listed(self, run):
        flow, result = run
        manifest = json.loads(result.telemetry_path.read_text())
        paths = {a["path"] for a in manifest["artifacts"]}
        assert "network.condor.json" in paths
        assert f"{result.accelerator.name}.xclbin" in paths
        assert MANIFEST_NAME not in paths  # not its own artifact

    def test_failed_run_still_writes_manifest(self, tmp_path):
        from repro.errors import FlowError

        flow = CondorFlow(tmp_path / "w")
        model = tc1_model()
        # TC1 cannot close timing at 400 MHz: step 7 fails
        from repro.frontend.condor_format import CondorModel
        broken = CondorModel(network=model.network, board=model.board,
                             frequency_hz=400e6,
                             deployment=model.deployment,
                             hints=model.hints)
        with pytest.raises(FlowError):
            flow.run(FlowInputs(model=broken))
        manifest = json.loads(
            (flow.workdir / MANIFEST_NAME).read_text())
        assert manifest["run"]["status"] == "error"
        assert "error" in manifest["run"]
        assert manifest["steps"]  # the successful prefix is recorded

    def test_telemetry_disabled_writes_nothing(self, tmp_path):
        flow = CondorFlow(tmp_path / "w", telemetry=False)
        result = flow.run(FlowInputs(model=tc1_model()))
        assert not (flow.workdir / MANIFEST_NAME).exists()
        assert result.telemetry_path is None
        assert result.steps  # step timing still recorded

    def test_schema_2_provenance_fields(self, run):
        """Satellite: git SHA, schema version and hostname make runs
        attributable across machines."""
        import platform

        from repro.obs.manifest import MANIFEST_SCHEMA, git_sha

        _, result = run
        manifest = json.loads(result.telemetry_path.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA == 2
        assert manifest["git_sha"] == git_sha()
        sha = manifest["git_sha"]
        assert sha is None or (len(sha) == 40 and
                               all(c in "0123456789abcdef" for c in sha))
        assert manifest["host"]["hostname"] == platform.node()

    def test_span_summaries_present(self, run):
        """Schema 2 carries streaming-sketch quantiles per span name."""
        _, result = run
        manifest = json.loads(result.telemetry_path.read_text())
        summaries = manifest["span_summaries"]
        assert "flow.1-input-analysis" in summaries
        entry = summaries["flow.1-input-analysis"]
        assert entry["count"] >= 1
        assert entry["quantiles"]["0.5"] >= 0
        assert entry["min"] <= entry["max"]

    def test_timeseries_written_and_referenced(self, run):
        """The flow writes timeseries.jsonl next to telemetry.json, one
        row at start and one per step, and the manifest records the
        file and its row count."""
        flow, result = run
        manifest = json.loads(result.telemetry_path.read_text())
        series = flow.workdir / "timeseries.jsonl"
        assert series.is_file()
        rows = [json.loads(l) for l in
                series.read_text().splitlines()]
        assert len(rows) == len(result.steps) + 1
        assert manifest["timeseries"] == {"path": "timeseries.jsonl",
                                          "samples": len(rows)}
        assert all("metrics" in r for r in rows)

    def test_no_obs_flow_writes_no_timeseries_and_records_nothing(
            self, tmp_path, monkeypatch):
        """REPRO_NO_OBS=1: the flow still succeeds and writes a (bare)
        manifest, but no spans are recorded and no timeseries exists."""
        monkeypatch.setenv("REPRO_NO_OBS", "1")
        flow = CondorFlow(tmp_path / "w")
        result = flow.run(FlowInputs(model=tc1_model()))
        assert result.steps  # step timing still works
        manifest = json.loads(
            (flow.workdir / MANIFEST_NAME).read_text())
        assert manifest["spans"] == []
        assert manifest["span_summaries"] == {}
        assert not (flow.workdir / "timeseries.jsonl").exists()


class TestMetricsCoverage:
    def test_flow_dse_sim_cloud_all_covered(self, tmp_path):
        """The acceptance list: flow steps, DSE points, sim cycles and
        cloud API calls all show up in the exposition after exercising
        each subsystem."""
        import numpy as np

        from repro.frontend.weights import WeightStore
        from repro.hw.accelerator import build_accelerator
        from repro.sim.dataflow import simulate_accelerator

        flow = CondorFlow(tmp_path / "w")
        result = flow.run(FlowInputs(model=tc1_model(), run_dse=True))
        weights = WeightStore.load(flow.workdir / "weights")
        images = np.zeros((1,) + result.model.network.input_shape()
                          .as_tuple(), dtype=np.float32)
        simulate_accelerator(build_accelerator(result.model), weights,
                             images)

        assert REGISTRY.get(
            "condor_flow_steps_started_total").total() >= 7
        assert REGISTRY.get(
            "condor_dse_points_evaluated_total").total() >= 1
        assert REGISTRY.get("condor_sim_cycles_total").total() > 0
        calls = REGISTRY.get("condor_cloud_api_calls_total")
        assert calls.value(verb="s3-put-object") >= 1
        assert calls.value(verb="create-fpga-image") >= 1

        text = REGISTRY.to_prometheus()
        for name in ("condor_flow_steps_started_total",
                     "condor_dse_points_evaluated_total",
                     "condor_sim_cycles_total",
                     "condor_cloud_api_calls_total"):
            assert name in text

    def test_plan_cache_counters_reach_manifest(self, tmp_path):
        """Running the planned engine moves the plan-ledger metrics and
        they flow into the ``telemetry.json`` metrics block (the
        manifest snapshots the whole registry)."""
        import numpy as np

        from repro.frontend.weights import WeightStore
        from repro.nn.engine import ReferenceEngine
        from repro.obs.manifest import build_manifest
        from repro.obs.spans import SpanRecorder

        net = tc1_model().network
        engine = ReferenceEngine(net, WeightStore.initialize(net),
                                 use_plans=True)
        image = np.zeros(net.input_shape().as_tuple(), dtype=np.float32)
        engine.forward(image)
        engine.forward(image)

        hits = REGISTRY.get("condor_plan_cache_hits_total")
        misses = REGISTRY.get("condor_plan_cache_misses_total")
        compiles = REGISTRY.get("condor_plan_compiles_total")
        assert hits.total() >= len(net.layers)
        assert misses.total() >= len(net.layers)
        assert compiles.total() >= len(net.layers)

        manifest = build_manifest(recorder=SpanRecorder(),
                                  workdir=tmp_path,
                                  run={"status": "succeeded"}, steps=[])
        metrics = manifest["metrics"]
        for name in ("condor_plan_cache_hits_total",
                     "condor_plan_cache_misses_total",
                     "condor_plan_compiles_total",
                     "condor_plan_compile_seconds"):
            assert name in metrics


class TestOverhead:
    def test_telemetry_overhead_is_bounded(self, tmp_path):
        """Telemetry must not meaningfully slow the flow down.  The
        acceptance bound is <5% — asserted here very loosely (2x + 0.5s)
        to stay robust on noisy CI machines; the point is catching
        pathological regressions, not benchmarking."""
        model = tc1_model()

        def timed(telemetry, workdir):
            flow = CondorFlow(workdir, telemetry=telemetry)
            t0 = time.perf_counter()
            flow.run(FlowInputs(model=model))
            return time.perf_counter() - t0

        timed(True, tmp_path / "warmup")  # warm caches/imports
        off = timed(False, tmp_path / "off")
        on = timed(True, tmp_path / "on")
        assert on <= off * 2.0 + 0.5


def test_peak_rss_plausible():
    rss = peak_rss_bytes()
    if rss is not None:
        assert rss > 10 * 1024 * 1024  # a python process is >10 MB
