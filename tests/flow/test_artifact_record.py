"""The build's artifact record: one entry per file the run wrote or
restored, equal to the workdir on disk, each file owned by one step."""

import hashlib
import json

import pytest

from repro.flow import CondorFlow, FlowInputs
from repro.frontend.condor_format import DeploymentOption
from repro.frontend.zoo import lenet_model, tc1_model
from repro.obs import MANIFEST_NAME, TIMESERIES_NAME


def on_disk(workdir):
    """rglob + sha256 + size of the workdir, telemetry.json excluded."""
    rows = []
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if path.is_file() and rel != MANIFEST_NAME:
            data = path.read_bytes()
            rows.append({"path": rel, "bytes": len(data),
                         "sha256": hashlib.sha256(data).hexdigest()})
    return sorted(rows, key=lambda row: row["path"])


def check_record(flow):
    workdir = flow.workdir
    disk = on_disk(workdir)
    assert flow.checkpoints.listing() == disk
    manifest = json.loads((workdir / MANIFEST_NAME).read_text())
    assert manifest["artifacts"] == disk
    owners = {}
    for path in sorted((workdir / "checkpoints").glob("*.json")):
        for rel in json.loads(path.read_text())["artifacts"]:
            owners.setdefault(rel, []).append(path.stem)
    for row in disk:
        rel = row["path"]
        if rel.startswith("checkpoints/") or rel == TIMESERIES_NAME:
            assert rel not in owners
        else:
            assert len(owners.get(rel, ())) == 1, (rel, owners.get(rel))


@pytest.mark.parametrize("model, run_dse", [
    (tc1_model(DeploymentOption.AWS_F1), True),
    (lenet_model(), False),
], ids=["tc1-aws-dse", "lenet"])
def test_record_matches_the_workdir_fresh_and_resumed(tmp_path, model,
                                                      run_dse):
    inputs = FlowInputs(model=model, run_dse=run_dse)
    fresh = CondorFlow(tmp_path)
    fresh.run(inputs)
    check_record(fresh)
    resumed = CondorFlow(tmp_path, resume=True)
    result = resumed.run(inputs)
    assert all(step.skipped for step in result.steps)
    check_record(resumed)


def test_stale_files_are_not_listed(tmp_path):
    (tmp_path / "left-by-an-earlier-run.txt").write_text("stale")
    flow = CondorFlow(tmp_path)
    flow.run(FlowInputs(model=lenet_model()))
    paths = {row["path"] for row in flow.checkpoints.listing()}
    assert "left-by-an-earlier-run.txt" not in paths
    assert "network.condor.json" in paths


def test_edited_condor_json_reruns_from_step_2(tmp_path):
    inputs = FlowInputs(model=lenet_model())
    CondorFlow(tmp_path).run(inputs)
    path = tmp_path / "network.condor.json"
    path.write_text(path.read_text() + " ")
    result = CondorFlow(tmp_path, resume=True).run(inputs)
    skipped = [step.name for step in result.steps if step.skipped]
    assert skipped == ["1-input-analysis"]
    assert path.read_text().endswith("}\n")
