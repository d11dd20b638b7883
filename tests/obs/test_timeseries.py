"""Per-step metric rows: ``timeseries.jsonl`` holds one registry
snapshot at flow start and one per step record, and nothing in the
package starts a thread to take them."""

import json
import threading

import pytest

from repro.cli import main
from repro.errors import CondorError, FlowError
from repro.flow.condor import CondorFlow, FlowInputs
from repro.frontend.condor_format import save_condor_json
from repro.frontend.zoo import tc1_model
from repro.obs import MANIFEST_NAME, TIMESERIES_NAME


def _rows(workdir):
    return [json.loads(line) for line in
            (workdir / TIMESERIES_NAME).read_text().splitlines()]


def _manifest(workdir):
    return json.loads((workdir / MANIFEST_NAME).read_text())


def test_same_build_gives_same_labels_one_row_per_step(tmp_path):
    labels = []
    for name in ("a", "b"):
        flow = CondorFlow(tmp_path / name)
        flow.run(FlowInputs(model=tc1_model()))
        rows = _rows(flow.workdir)
        manifest = _manifest(flow.workdir)
        steps = [s["name"] for s in manifest["steps"]]
        assert len(rows) == len(steps) + 1
        assert [r["step"] for r in rows] == ["start", *steps]
        assert manifest["timeseries"] == {"path": TIMESERIES_NAME,
                                          "samples": len(rows)}
        for row in rows:
            assert set(row) == {"ts", "step", "peak_rss_bytes", "metrics"}
        # rows are taken at step boundaries, so each sees the counters
        # of the steps before it
        started = [r["metrics"]["condor_flow_steps_started_total"]
                   for r in rows]
        assert started == sorted(started) and started[-1] > started[0]
        labels.append([r["step"] for r in rows])
    assert labels[0] == labels[1]
    assert labels[0][-1] == "8-afi-creation"


def test_failed_step_writes_rows_through_the_failure(tmp_path,
                                                     monkeypatch):
    from repro.flow import condor as condor_mod

    def broken(*args, **kwargs):
        raise CondorError("synthesis blew up")

    monkeypatch.setattr(condor_mod, "build_network_ip", broken)
    flow = CondorFlow(tmp_path / "w")
    with pytest.raises(FlowError):
        flow.run(FlowInputs(model=tc1_model()))
    rows = _rows(flow.workdir)
    assert [r["step"] for r in rows] == [
        "start", "1-input-analysis", "2-design-space-exploration",
        "2b-static-analysis", "3-5-hardware-generation"]
    manifest = _manifest(flow.workdir)
    assert manifest["run"]["status"] == "error"
    assert len(rows) == len(manifest["steps"]) + 1
    failed = manifest["steps"][-1]
    assert failed["name"] == "3-5-hardware-generation"
    assert failed["detail"].startswith("failed: FlowError:")
    assert "synthesis blew up" in failed["detail"]


def test_skipped_and_degraded_steps_get_one_row_each(tmp_path):
    # afi_max_polls=1 cannot finish the AFI: step 8 fails, is recorded
    # once, and the run degrades instead of raising
    flow = CondorFlow(tmp_path / "w")
    result = flow.run(FlowInputs(model=tc1_model(), afi_max_polls=1))
    assert result.degraded
    rows = _rows(flow.workdir)
    assert len(rows) == len(result.steps) + 1
    assert [s.name for s in result.steps].count("8-afi-creation") == 1
    assert result.steps[-1].detail.startswith("degraded:")
    assert rows[-1]["step"] == "8-afi-creation"

    resumed = CondorFlow(tmp_path / "w", resume=True)
    again = resumed.run(FlowInputs(model=tc1_model()))
    rows = _rows(resumed.workdir)
    assert all(s.skipped for s in again.steps[:-1])
    assert [r["step"] for r in rows] == \
        ["start", *(s.name for s in again.steps)]


def test_build_and_serve_start_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name!r} started")

    model = save_condor_json(tc1_model(), tmp_path / "tc1.json")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["--workdir", str(tmp_path / "build"), "build",
                 str(model)]) == 0
    assert (tmp_path / "build" / TIMESERIES_NAME).is_file()
    assert main(["--workdir", str(tmp_path / "serve"), "serve",
                 "--model", "tc1", "--rate", "200", "--duration", "0.5",
                 "--seed", "0", "--format", "json"]) == 0
