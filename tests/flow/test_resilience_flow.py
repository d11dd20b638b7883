"""Flow-level resilience: chaos survival, degraded runs, checkpoint
resume, manifest error capture."""

import json

import pytest

from repro.errors import FlowError
from repro.flow import CondorFlow, FlowInputs
from repro.frontend.condor_format import DeploymentOption
from repro.frontend.zoo import lenet_model
from repro.resilience import (
    ALL_BOUNDARIES,
    FaultKind,
    FaultPlan,
    FaultSpec,
    inject_faults,
)


def aws_inputs(**overrides):
    return FlowInputs(model=lenet_model(DeploymentOption.AWS_F1),
                      **overrides)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A fault-free AWS-F1 build every scenario compares against."""
    flow = CondorFlow(tmp_path_factory.mktemp("ref"))
    result = flow.run(aws_inputs())
    return result, result.xclbin_path.read_bytes()


class TestChaosSurvival:
    def test_transient_fault_at_every_boundary_survives(self, tmp_path,
                                                        reference):
        _, ref_bytes = reference
        plan = FaultPlan([FaultSpec(b, FaultKind.TRANSIENT, times=1)
                          for b in ALL_BOUNDARIES], seed=7)
        flow = CondorFlow(tmp_path)
        with inject_faults(plan):
            result = flow.run(aws_inputs())
        assert not result.degraded
        assert result.afi_id
        # every boundary actually fired its fault ...
        fired = {b for (b, _) in plan.injected}
        assert fired == set(ALL_BOUNDARIES)
        # ... and the artifact is bit-identical to the fault-free build
        assert result.xclbin_path.read_bytes() == ref_bytes
        assert sum(flow.resilience["retries"].values()) >= \
            len(ALL_BOUNDARIES)

    def test_corrupted_upload_caught_and_retried(self, tmp_path,
                                                 reference):
        _, ref_bytes = reference
        plan = FaultPlan([FaultSpec("cloud.upload", FaultKind.CORRUPT)],
                         seed=3)
        flow = CondorFlow(tmp_path)
        with inject_faults(plan):
            result = flow.run(aws_inputs())
        assert not result.degraded
        assert flow.resilience["retries"]["cloud.upload"] == 1
        # the AFI was created from the *intact* payload
        record = flow.aws.afi.describe_fpga_image(result.afi_id)
        assert record.xclbin_bytes == ref_bytes

    def test_no_wallclock_time_spent_on_backoff(self, tmp_path):
        plan = FaultPlan([FaultSpec("cloud.*", FaultKind.SLOW,
                                    delay_s=1800.0, times=3)], seed=0)
        flow = CondorFlow(tmp_path)
        import time
        t0 = time.perf_counter()
        with inject_faults(plan):
            result = flow.run(aws_inputs())
        # 3 x 30 virtual minutes of injected latency; wall time stays
        # test-suite sized because everything sleeps on the VirtualClock
        assert time.perf_counter() - t0 < 30.0
        assert result.afi_id


class TestDegradedRuns:
    def test_permanent_afi_fault_degrades_to_partial(self, tmp_path,
                                                     reference):
        _, ref_bytes = reference
        plan = FaultPlan([FaultSpec("cloud.create-fpga-image",
                                    FaultKind.PERMANENT)], seed=1)
        flow = CondorFlow(tmp_path)
        with inject_faults(plan):
            result = flow.run(aws_inputs())
        assert result.degraded
        assert "AFIError" in result.degradation
        assert result.afi_id is None
        # the local build is intact
        assert result.xclbin_path.read_bytes() == ref_bytes
        assert result.host_path.is_file()
        manifest = json.loads(
            (tmp_path / "telemetry.json").read_text())
        assert manifest["run"]["status"] == "partial"
        assert manifest["run"]["degraded_step"] == "8-afi-creation"
        step8 = [s for s in manifest["steps"]
                 if s["name"] == "8-afi-creation"]
        assert step8 and "degraded" in step8[0]["detail"]

    def test_afi_poll_budget_exhaustion_degrades(self, tmp_path):
        # the AFI backend needs PENDING_TICKS polls; one poll cannot
        # complete, and the resulting AFIError degrades the run
        flow = CondorFlow(tmp_path)
        result = flow.run(aws_inputs(afi_max_polls=1))
        assert result.degraded
        assert "still pending" in result.degradation

    def test_toolchain_failure_does_not_degrade(self, tmp_path):
        plan = FaultPlan([FaultSpec("toolchain.xocc-link",
                                    FaultKind.PERMANENT)], seed=2)
        flow = CondorFlow(tmp_path)
        with inject_faults(plan), pytest.raises(FlowError):
            flow.run(aws_inputs())


class TestBreakerSnapshot:
    def test_breaker_states_reach_manifest(self, tmp_path):
        """Satellite: the manifest's resilience block names every
        breaker the run touched, with state and trip odometer."""
        plan = FaultPlan([FaultSpec("cloud.upload", FaultKind.TRANSIENT,
                                    times=1)], seed=5)
        flow = CondorFlow(tmp_path)
        with inject_faults(plan):
            flow.run(aws_inputs())
        manifest = json.loads(
            (tmp_path / "telemetry.json").read_text())
        res = manifest["resilience"]
        assert res["retries"]["cloud.upload"] == 1
        entry = res["breakers"]["cloud.upload"]
        # one transient failure, then success: closed again, never open
        assert entry["state"] == "closed"
        assert entry["opened_count"] == 0
        assert entry["consecutive_failures"] == 0

    def test_clean_run_has_no_resilience_block(self, tmp_path):
        flow = CondorFlow(tmp_path)
        flow.run(aws_inputs())
        manifest = json.loads(
            (tmp_path / "telemetry.json").read_text())
        # calls happened, so the block exists — with quiet breakers
        res = manifest.get("resilience")
        if res is not None:
            assert all(b["opened_count"] == 0
                       for b in res.get("breakers", {}).values())


class TestOneLedger:
    """Each retry, give-up and breaker event is counted once, in the
    resilience ledger: the registry series and the run's block both
    read it."""

    def test_retry_counted_once(self, tmp_path, monkeypatch):
        from repro.obs import REGISTRY
        from repro.obs.metrics import Counter

        names = ("condor_resilience_retries_total",
                 "condor_resilience_giveups_total",
                 "condor_resilience_breaker_rejected_total",
                 "condor_resilience_breaker_opened_total")
        inc = Counter.inc

        def no_push(self, *args, **labels):
            if self.name.startswith("condor_resilience_") and \
                    self.name != "condor_resilience_faults_injected_total":
                raise AssertionError(f"{self.name} was pushed")
            return inc(self, *args, **labels)
        monkeypatch.setattr(Counter, "inc", no_push)
        series = {name: REGISTRY.get(name) for name in names}
        before = {name: metric.snapshot()["values"]
                  for name, metric in series.items()}
        retries = series["condor_resilience_retries_total"]
        upload_before = retries.value(boundary="cloud.upload")

        plan = FaultPlan([FaultSpec("cloud.upload", FaultKind.TRANSIENT,
                                    times=1)], seed=5)
        flow = CondorFlow(tmp_path)
        with inject_faults(plan):
            flow.run(aws_inputs())

        block = json.loads(
            (tmp_path / "telemetry.json").read_text())["resilience"]
        assert block["retries"] == {"cloud.upload": 1}
        assert block["giveups"] == {}
        assert block["breaker_rejections"] == {}
        assert flow.resilience["retries"] == {"cloud.upload": 1}
        assert retries.value(boundary="cloud.upload") == upload_before + 1
        # no other series moved, and no metric holds a pushed copy
        after = {name: metric.snapshot()["values"]
                 for name, metric in series.items()}
        moved = [(name, entry) for name in names
                 for entry in after[name] if entry not in before[name]]
        assert moved == [("condor_resilience_retries_total",
                          {"labels": {"boundary": "cloud.upload"},
                           "value": upload_before + 1})]
        assert all(not metric._values for metric in series.values())

    def test_block_kept_when_the_run_raises(self, tmp_path):
        plan = FaultPlan([FaultSpec("toolchain.xocc-link",
                                    FaultKind.TRANSIENT, times=3)],
                         seed=6)
        flow = CondorFlow(tmp_path)
        with inject_faults(plan), pytest.raises(FlowError):
            flow.run(aws_inputs())
        manifest = json.loads(
            (tmp_path / "telemetry.json").read_text())
        assert manifest["run"]["status"] == "error"
        block = manifest["resilience"]
        assert list(block)[:4] == ["calls", "retries", "giveups",
                                   "breaker_rejections"]
        assert block["retries"] == {"toolchain.xocc-link": 2}
        assert block["giveups"] == {"toolchain.xocc-link": 1}
        assert flow.resilience == {key: block[key] for key in
                                   ("calls", "retries", "giveups",
                                    "breaker_rejections")}


class TestManifestErrorCapture:
    def test_non_condor_error_recorded(self, tmp_path, monkeypatch):
        import repro.flow.condor as condor_module

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(condor_module, "generate_host_source", boom)
        flow = CondorFlow(tmp_path)
        with pytest.raises(OSError):
            flow.run(aws_inputs())
        manifest = json.loads(
            (tmp_path / "telemetry.json").read_text())
        assert manifest["run"]["status"] == "error"
        assert manifest["run"]["error"] == "OSError: disk full"


class TestResume:
    def test_full_resume_skips_everything(self, tmp_path, reference):
        _, ref_bytes = reference
        first = CondorFlow(tmp_path).run(aws_inputs())
        resumed = CondorFlow(tmp_path, resume=True).run(aws_inputs())
        assert all(s.skipped for s in resumed.steps)
        assert [s.name for s in resumed.steps] == \
            [s.name for s in first.steps]
        assert resumed.xclbin_path.read_bytes() == ref_bytes
        assert resumed.afi_id == first.afi_id
        assert resumed.agfi_id == first.agfi_id
        manifest = json.loads(
            (tmp_path / "telemetry.json").read_text())
        assert all(s["skipped"] for s in manifest["steps"])

    def test_resume_after_crash_reruns_from_failure(self, tmp_path,
                                                    reference):
        _, ref_bytes = reference
        plan = FaultPlan([FaultSpec("toolchain.xocc-link",
                                    FaultKind.PERMANENT)], seed=4)
        with inject_faults(plan), pytest.raises(FlowError):
            CondorFlow(tmp_path).run(aws_inputs())
        # steps 1..6 left checkpoints; 7 failed before writing one
        resumed = CondorFlow(tmp_path, resume=True).run(aws_inputs())
        by_name = {s.name: s for s in resumed.steps}
        skipped = {n for n, s in by_name.items() if s.skipped}
        assert skipped == {"1-input-analysis",
                           "2-design-space-exploration",
                           "2b-static-analysis",
                           "3-5-hardware-generation",
                           "6-sdaccel-integration"}
        assert not by_name["7-deployment-on-board"].skipped
        assert not by_name["8-afi-creation"].skipped
        assert resumed.xclbin_path.read_bytes() == ref_bytes

    def test_changed_inputs_invalidate_all_checkpoints(self, tmp_path):
        CondorFlow(tmp_path).run(aws_inputs())
        resumed = CondorFlow(tmp_path, resume=True).run(
            aws_inputs(frequency_hz=150e6))
        assert not any(s.skipped for s in resumed.steps)

    def test_tampered_artifact_invalidates_step(self, tmp_path):
        first = CondorFlow(tmp_path).run(aws_inputs())
        first.xclbin_path.write_bytes(b"corrupted")
        resumed = CondorFlow(tmp_path, resume=True).run(aws_inputs())
        by_name = {s.name: s for s in resumed.steps}
        assert by_name["6-sdaccel-integration"].skipped
        assert not by_name["7-deployment-on-board"].skipped
        # the re-run repaired the artifact
        assert resumed.xclbin == first.xclbin

    def test_without_resume_flag_checkpoints_ignored(self, tmp_path):
        CondorFlow(tmp_path).run(aws_inputs())
        rerun = CondorFlow(tmp_path).run(aws_inputs())
        assert not any(s.skipped for s in rerun.steps)


class TestPollingKnobs:
    def test_default_poll_budget_succeeds(self, tmp_path):
        result = CondorFlow(tmp_path).run(aws_inputs())
        assert result.afi_id

    def test_flow_inputs_override_reaches_session(self, tmp_path):
        seen = {}
        flow = CondorFlow(tmp_path)
        original = flow.aws.wait_for_afi

        def spy(afi_id, **kwargs):
            seen.update(kwargs)
            return original(afi_id, **kwargs)

        flow.aws.wait_for_afi = spy
        flow.run(aws_inputs(afi_max_polls=50))
        assert seen["max_polls"] == 50
