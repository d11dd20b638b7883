"""The ``condor bench`` harness: measurements, persistence, the gate."""

import json

import pytest

from repro.errors import BenchError
from repro.perf.bench import (
    KIND,
    OBS_OVERHEAD_LIMIT,
    SCHEMA,
    SUITE,
    BenchResult,
    bench_dse,
    bench_obs_overhead,
    bench_serve,
    bench_sim,
    compare_benchmarks,
    load_benchmarks,
    run_bench,
    write_benchmarks,
)


def _result(op="serve", model="tc1", wall_s=1.0, cycles=None,
            speedup=None):
    return BenchResult(op=op, model=model, wall_s=wall_s, cycles=cycles,
                       speedup_vs_baseline=speedup)


def _stub_ops(monkeypatch):
    """Replace every op with a stub row (the real measurements are
    covered by ``TestOps``)."""
    import repro.perf.bench as bench_mod

    for op in KIND:
        monkeypatch.setitem(
            bench_mod._OPS, op,
            lambda model, _op=op, **kw: _result(op=_op, model=model))


class TestOps:
    def test_dse_reports_cycles(self):
        result = bench_dse("tc1")
        assert (result.op, result.model) == ("dse", "tc1")
        assert result.wall_s > 0
        assert result.cycles == 256  # the explorer's best II on tc1
        assert result.speedup_vs_baseline is None

    def test_sim_cycles_deterministic(self):
        first = bench_sim("tc1", batch=2, reps=1)
        second = bench_sim("tc1", batch=2, reps=1)
        assert first.cycles == second.cycles > 0
        assert first.speedup_vs_baseline is None

    def test_unknown_model_rejected(self):
        with pytest.raises(BenchError, match="unknown zoo model"):
            bench_dse("alexnet")

    def test_obs_overhead_reports_ratio(self):
        result = bench_obs_overhead("tc1", batch=4, reps=3)
        assert (result.op, result.model) == ("obs-overhead", "tc1")
        assert result.wall_s > 0
        # instrumented/plain wall ratio: near 1.0, positive by nature
        assert result.speedup_vs_baseline > 0
        assert result.cycles is None

    def test_serve_batching_beats_batch_size_one(self):
        result = bench_serve("tc1", requests=1024)
        assert (result.op, result.model) == ("serve", "tc1")
        assert result.wall_s > 0
        # the acceptance bar: coalescing at least doubles serving
        # throughput over the per-request path (same seeded workload,
        # bit-identical outputs asserted inside the op)
        assert result.speedup_vs_baseline >= 2.0
        assert result.cycles is None


def test_suite_rows():
    """One suite: exact figures of every op on the zoo, plus the
    telemetry budget; every row's op is labelled."""
    assert [(op, model) for op, model, _ in SUITE] == [
        ("dse", "tc1"), ("dse", "lenet"), ("dse", "vgg16"),
        ("sim", "tc1"), ("sim", "lenet"), ("serve", "tc1"),
        ("obs-overhead", "lenet")]
    assert {op for op, _, _ in SUITE} == set(KIND)


def test_run_bench(monkeypatch):
    """The suite runs end to end and yields one row per entry, each
    run with exactly its suite kwargs."""
    import repro.perf.bench as bench_mod

    calls = []

    def fake(op):
        def run(model, **kwargs):
            calls.append((op, model, kwargs))
            return _result(op=op, model=model)
        return run

    for op in KIND:
        monkeypatch.setitem(bench_mod._OPS, op, fake(op))
    results = run_bench()
    assert [(r.op, r.model) for r in results] == \
        [(op, model) for op, model, _ in SUITE]
    assert calls == list(SUITE)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rows_are_labelled_modeled_or_measured(fmt, monkeypatch, tmp_path,
                                               capsys):
    """Every op carries one label, shown as a table column and as
    ``kind`` on each JSON row; the written file keeps the schema."""
    import repro.perf.bench as bench_mod
    from repro.cli import main

    assert KIND == {"dse": "modeled", "sim": "modeled",
                    "serve": "modeled", "obs-overhead": "measured"}
    assert set(KIND) == set(bench_mod._OPS)
    _stub_ops(monkeypatch)
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--format", fmt, "--output",
                 str(out_path)]) == 0
    out = capsys.readouterr().out
    expected = {(op, KIND[op]) for op, _, _ in SUITE}
    if fmt == "json":
        doc = json.loads(out)
        assert doc["schema"] == SCHEMA
        assert {(r["op"], r["kind"]) for r in doc["results"]} == expected
    else:
        header, _, *lines = [[cell.strip() for cell in line.split("|")]
                             for line in out.splitlines()]
        assert header[:3] == ["op", "model", "kind"]
        assert {(line[0], line[2]) for line in lines} == expected
    assert [r.op for r in load_benchmarks(out_path)] == \
        [op for op, _, _ in SUITE]


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        results = [_result(speedup=2.5),
                   _result(op="sim", cycles=8363)]
        path = write_benchmarks(results, tmp_path / "BENCH_perf.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA
        assert load_benchmarks(path) == results

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope", "results": []}))
        with pytest.raises(BenchError, match="schema"):
            load_benchmarks(path)

    def test_v1_file_rejected(self, tmp_path):
        """A v1 file (rows with ``cache_hits``) is rejected by its
        schema, not misread row by row."""
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"schema": "condor-bench/v1",
                                    "results": [
                                        {"op": "sim", "model": "tc1",
                                         "wall_s": 0.1, "cycles": 8363,
                                         "cache_hits": None,
                                         "speedup_vs_baseline": None}]}))
        with pytest.raises(BenchError, match="condor-bench/v1"):
            load_benchmarks(path)

    def test_committed_baseline_loads(self):
        """``BENCH_perf.json`` holds one row per suite entry."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_perf.json"
        assert [r.key() for r in load_benchmarks(path)] == \
            [(op, model) for op, model, _ in SUITE]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BenchError, match="cannot read"):
            load_benchmarks(tmp_path / "absent.json")

    def test_stdout_document_loads_as_baseline(self, tmp_path,
                                               monkeypatch, capsys):
        """``condor bench --format json`` rows carry their op's ``kind``
        label; the printed document loads as a ``--baseline``."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)  # the default --output/--baseline
        _stub_ops(monkeypatch)
        assert main(["bench", "--format", "json", "--output", ""]) == 0
        path = tmp_path / "stdout.json"
        path.write_text(capsys.readouterr().out)
        rows = json.loads(path.read_text())["results"]
        assert [(r.op, r.model) for r in load_benchmarks(path)] == \
            [(r["op"], r["model"]) for r in rows]
        assert main(["bench", "--baseline", str(path),
                     "--output", ""]) == 0
        # a kind other than the op's own is an unexpected key
        rows[0]["kind"] = "measured"  # rows[0] is a modeled dse row
        path.write_text(json.dumps({"schema": SCHEMA, "results": rows}))
        with pytest.raises(BenchError, match="malformed"):
            load_benchmarks(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"schema": SCHEMA, "results": [{"op": "sim"}]}))
        with pytest.raises(BenchError, match="malformed"):
            load_benchmarks(path)


class TestCompare:
    def test_identical_runs_pass(self):
        rows = [_result(speedup=2.0), _result(op="sim", cycles=100)]
        assert compare_benchmarks(rows, rows) == []

    def test_cycles_regression_flagged(self):
        base = [_result(op="sim", cycles=100)]
        ok = [_result(op="sim", cycles=119)]
        bad = [_result(op="sim", cycles=121)]
        assert compare_benchmarks(ok, base) == []
        violations = compare_benchmarks(bad, base)
        assert len(violations) == 1
        assert "cycles regressed" in violations[0]

    def test_speedup_decay_flagged(self):
        base = [_result(speedup=2.0)]
        ok = [_result(speedup=1.61)]
        bad = [_result(speedup=1.59)]
        assert compare_benchmarks(ok, base) == []
        violations = compare_benchmarks(bad, base)
        assert len(violations) == 1
        assert "speedup regressed" in violations[0]

    def test_threshold_configurable(self):
        base = [_result(op="sim", cycles=100)]
        current = [_result(op="sim", cycles=130)]
        assert compare_benchmarks(current, base,
                                  max_regression=0.5) == []
        assert compare_benchmarks(current, base,
                                  max_regression=0.1) != []

    def test_wall_clock_never_gated(self):
        base = [_result(wall_s=1.0, speedup=2.0)]
        current = [_result(wall_s=100.0, speedup=2.0)]
        assert compare_benchmarks(current, base) == []

    def test_unmatched_rows_ignored(self):
        base = [_result(op="dse", model="vgg16", cycles=10,
                        speedup=40.0)]
        current = [_result(op="dse", model="tc1", cycles=99999,
                           speedup=0.01)]
        assert compare_benchmarks(current, base) == []

    def test_new_op_is_informational_not_a_failure(self):
        # a brand-new op must be able to land in the same PR that
        # refreshes the committed baseline, so a missing baseline row
        # is a note, never a violation
        current = [_result(op="serve", model="tc1", speedup=3.3)]
        notes: list[str] = []
        assert compare_benchmarks(current, [], notes=notes) == []
        assert len(notes) == 1
        assert "serve:tc1" in notes[0]
        assert "informational" in notes[0]
        assert "3.30x" in notes[0]

    def test_notes_are_opt_in(self):
        current = [_result(op="serve", model="tc1", speedup=3.3)]
        # the default call stays silent and still passes
        assert compare_benchmarks(current, []) == []

    def test_obs_overhead_gated_absolutely(self):
        # no baseline row needed: the budget is absolute
        over = [_result(op="obs-overhead", model="lenet",
                        speedup=OBS_OVERHEAD_LIMIT + 0.01)]
        violations = compare_benchmarks(over, [])
        assert len(violations) == 1
        assert "telemetry overhead" in violations[0]
        assert "budget" in violations[0]

    def test_obs_overhead_under_budget_passes(self):
        ok = [_result(op="obs-overhead", model="lenet",
                      speedup=OBS_OVERHEAD_LIMIT - 0.01)]
        assert compare_benchmarks(ok, []) == []
        # and the relative-decay rule never applies to this op, even
        # when a (better) baseline row exists
        base = [_result(op="obs-overhead", model="lenet", speedup=1.00)]
        assert compare_benchmarks(ok, base) == []

    def test_improvements_pass(self):
        base = [_result(op="sim", cycles=100),
                _result(speedup=2.0)]
        current = [_result(op="sim", cycles=50),
                   _result(speedup=4.0)]
        assert compare_benchmarks(current, base) == []


def test_bench_writes_nothing_by_default(tmp_path, monkeypatch, capsys):
    """A bare ``condor bench`` run from the repo root must not rewrite
    the committed baseline: only ``--output`` writes."""
    from pathlib import Path

    from repro.cli import main

    baseline = Path(__file__).resolve().parents[2] / "BENCH_perf.json"
    committed = tmp_path / "BENCH_perf.json"
    committed.write_bytes(baseline.read_bytes())
    monkeypatch.chdir(tmp_path)
    _stub_ops(monkeypatch)
    assert main(["bench"]) == 0
    assert committed.read_bytes() == baseline.read_bytes()
    assert "benchmarks written" not in capsys.readouterr().err
