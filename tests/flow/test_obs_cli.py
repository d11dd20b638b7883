"""``condor obs`` — offline analytics over a run's telemetry artifacts."""

import json

import pytest

from repro.cli import main
from repro.frontend.condor_format import save_condor_json
from repro.frontend.zoo import tc1_model


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One real build whose workdir holds telemetry.json +
    timeseries.jsonl (shared: the obs commands are read-only)."""
    workdir = tmp_path_factory.mktemp("run")
    model_json = save_condor_json(
        tc1_model(), workdir.parent / "tc1.json")
    assert main(["--workdir", str(workdir), "build",
                 str(model_json)]) == 0
    return workdir


class TestReport:
    def test_table_from_workdir(self, run_dir, capsys):
        assert main(["obs", "report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "condor.flow" in out
        assert "flow.1-input-analysis" in out
        for column in ("count", "total_s", "p50_ms", "p95_ms",
                       "p99_ms"):
            assert column in out

    def test_explicit_manifest_path(self, run_dir, capsys):
        assert main(["obs", "report",
                     str(run_dir / "telemetry.json")]) == 0
        assert "condor.flow" in capsys.readouterr().out
        # telemetry.json and the checkpoints are written compactly
        for path in (run_dir / "telemetry.json",
                     *(run_dir / "checkpoints").glob("*.json")):
            assert path.read_text().count("\n") == 1, path.name

    def test_json_sort_and_limit(self, run_dir, capsys):
        assert main(["obs", "report", str(run_dir), "--format", "json",
                     "--sort", "count", "--limit", "3"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        counts = [r["count"] for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_missing_manifest_errors(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path)]) == 1
        assert "no telemetry manifest" in capsys.readouterr().err

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["obs"])


class TestDiff:
    def test_self_diff_is_clean(self, run_dir, capsys):
        assert main(["obs", "diff", str(run_dir), str(run_dir)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_flagged_and_gated(self, run_dir, tmp_path,
                                          capsys):
        baseline = json.loads((run_dir / "telemetry.json").read_text())
        slower = json.loads(json.dumps(baseline))
        for summary in slower["span_summaries"].values():
            summary["sum"] *= 10
            summary["min"] = (summary["min"] or 0) * 10
            summary["max"] = (summary["max"] or 0) * 10
            summary["quantiles"] = {
                q: v * 10 for q, v in summary["quantiles"].items()}
        cur = tmp_path / "telemetry.json"
        cur.write_text(json.dumps(slower))

        # informational by default: regressions print but exit 0
        assert main(["obs", "diff", str(run_dir), str(cur)]) == 0
        out = capsys.readouterr().out
        assert "latency" in out

        # --fail-on-regress turns findings into a failing exit code
        assert main(["obs", "diff", str(run_dir), str(cur),
                     "--fail-on-regress"]) == 1

        # a huge threshold waves the same growth through
        assert main(["obs", "diff", str(run_dir), str(cur),
                     "--fail-on-regress",
                     "--latency-threshold", "99",
                     "--metric-threshold", "99"]) == 0

    def test_json_format(self, run_dir, capsys):
        assert main(["obs", "diff", str(run_dir), str(run_dir),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []


class TestTimeseries:
    def test_summary_from_workdir(self, run_dir, capsys):
        assert main(["obs", "timeseries", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "samples:" in out

    def test_json_format(self, run_dir, capsys):
        assert main(["obs", "timeseries", str(run_dir),
                     "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["samples"] >= 2
        assert "metrics" in summary

    def test_missing_series_errors(self, tmp_path, capsys):
        assert main(["obs", "timeseries", str(tmp_path)]) == 1
        assert "no time series" in capsys.readouterr().err
