"""The ``condor bench`` harness: measurements, persistence, the gate."""

import json

import pytest

from repro.errors import BenchError
from repro.perf.bench import (
    FULL_SUITE,
    KIND,
    OBS_OVERHEAD_LIMIT,
    QUICK_SUITE,
    SCHEMA,
    BenchResult,
    bench_dse,
    bench_engine,
    bench_engine_steady,
    bench_obs_overhead,
    bench_serve,
    bench_sim,
    compare_benchmarks,
    load_benchmarks,
    merge_benchmarks,
    run_bench,
    write_benchmarks,
)


def _result(op="engine", model="tc1", wall_s=1.0, cycles=None,
            cache_hits=None, speedup=None):
    return BenchResult(op=op, model=model, wall_s=wall_s, cycles=cycles,
                       cache_hits=cache_hits, speedup_vs_baseline=speedup)


class TestOps:
    def test_engine_reports_speedup(self):
        result = bench_engine("tc1", batch=8, reps=1)
        assert (result.op, result.model) == ("engine", "tc1")
        assert result.wall_s > 0
        assert result.speedup_vs_baseline > 0
        assert result.cycles is None and result.cache_hits is None

    def test_dse_reports_cycles_and_hits(self):
        result = bench_dse("tc1", reps=1)
        assert (result.op, result.model) == ("dse", "tc1")
        assert result.cycles > 0
        assert result.cache_hits > 0  # the warm rerun hits the cache
        assert result.speedup_vs_baseline > 1.0

    def test_sim_cycles_deterministic(self):
        first = bench_sim("tc1", batch=2, reps=1)
        second = bench_sim("tc1", batch=2, reps=1)
        assert first.cycles == second.cycles > 0
        assert first.speedup_vs_baseline is None

    def test_engine_steady_reports_hits(self):
        result = bench_engine_steady("tc1", batch=8, reps=1)
        assert (result.op, result.model) == ("engine-steady", "tc1")
        assert result.wall_s > 0
        # the timed replay phase runs warm: every layer is a plan hit
        assert result.cache_hits > 0
        assert result.speedup_vs_baseline > 0
        assert result.cycles is None

    def test_unknown_model_rejected(self):
        with pytest.raises(BenchError, match="unknown zoo model"):
            bench_engine("alexnet")

    def test_obs_overhead_reports_ratio(self):
        result = bench_obs_overhead("tc1", batch=4, reps=3)
        assert (result.op, result.model) == ("obs-overhead", "tc1")
        assert result.wall_s > 0
        # instrumented/plain wall ratio: near 1.0, positive by nature
        assert result.speedup_vs_baseline > 0
        assert result.cycles is None and result.cache_hits is None

    def test_serve_batching_beats_batch_size_one(self):
        result = bench_serve("tc1", requests=1024)
        assert (result.op, result.model) == ("serve", "tc1")
        assert result.wall_s > 0
        # the acceptance bar: coalescing at least doubles serving
        # throughput over the per-request path (same seeded workload,
        # bit-identical outputs asserted inside the op)
        assert result.speedup_vs_baseline >= 2.0
        assert result.cycles is None and result.cache_hits is None


def test_suites_are_subset():
    quick = {(op, model) for op, model, _ in QUICK_SUITE}
    full = {(op, model) for op, model, _ in FULL_SUITE}
    assert quick <= full
    assert {op for op, _ in full} == \
        {"engine", "engine-steady", "dse", "sim", "serve",
         "obs-overhead"}
    # the serving path rides the CI regression gate
    assert ("serve", "tc1") in quick
    # the steady-state rows are part of the CI regression gate;
    # cifar10 brings padded convs, ceil-mode pools and avg-pool stages
    assert {m for op, m, _ in QUICK_SUITE if op == "engine-steady"} == \
        {"tc1", "lenet", "cifar10"}


def test_run_bench_quick(monkeypatch):
    """The quick suite runs end to end and yields one row per entry
    (ops stubbed out — the real measurements are covered above)."""
    import repro.perf.bench as bench_mod

    calls = []

    def fake(op):
        def run(model, **kwargs):
            calls.append((op, model, kwargs))
            return _result(op=op, model=model)
        return run

    for op in ("engine", "engine-steady", "dse", "sim", "serve",
               "obs-overhead"):
        monkeypatch.setitem(bench_mod._OPS, op, fake(op))
    results = run_bench(quick=True)
    assert [(r.op, r.model) for r in results] == \
        [(op, model) for op, model, _ in QUICK_SUITE]
    # each row runs with exactly its suite kwargs
    assert calls == list(QUICK_SUITE)


def test_run_bench_op_filter(monkeypatch):
    import repro.perf.bench as bench_mod

    for op in ("engine", "engine-steady", "dse", "sim", "serve",
               "obs-overhead"):
        monkeypatch.setitem(
            bench_mod._OPS, op,
            lambda model, _op=op, **kw: _result(op=_op, model=model))
    results = run_bench(quick=True, ops={"engine-steady"})
    assert [(r.op, r.model) for r in results] == \
        [(op, model) for op, model, _ in QUICK_SUITE
         if op == "engine-steady"]
    with pytest.raises(BenchError, match="unknown bench op"):
        run_bench(quick=True, ops={"warp-drive"})


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rows_are_labelled_modeled_or_measured(fmt, monkeypatch, tmp_path,
                                               capsys):
    """Every op carries one label, shown as a table column and as
    ``kind`` on each JSON row; the written file keeps the v1 schema."""
    import repro.perf.bench as bench_mod
    from repro.cli import main

    assert KIND == {"engine": "measured", "engine-steady": "measured",
                    "dse": "measured", "obs-overhead": "measured",
                    "serve": "modeled", "sim": "modeled"}
    assert set(KIND) == set(bench_mod._OPS)
    for op in KIND:
        monkeypatch.setitem(
            bench_mod._OPS, op,
            lambda model, _op=op, **kw: _result(op=_op, model=model))
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--quick", "--op", "serve", "--op", "dse",
                 "--format", fmt, "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        rows = json.loads(out)["results"]
        assert {(r["op"], r["kind"]) for r in rows} == \
            {("serve", "modeled"), ("dse", "measured")}
    else:
        header, _, *lines = [[cell.strip() for cell in line.split("|")]
                             for line in out.splitlines()]
        assert header[:3] == ["op", "model", "kind"]
        assert {(line[0], line[2]) for line in lines} == \
            {("serve", "modeled"), ("dse", "measured")}
    assert [r.op for r in load_benchmarks(out_path)] == \
        ["dse", "dse", "serve"]


def test_merge_benchmarks_overlays_by_key():
    existing = [_result(op="engine", speedup=2.0),
                _result(op="sim", cycles=100),
                _result(op="dse", model="lenet", speedup=5.0)]
    fresh = [_result(op="sim", cycles=90),
             _result(op="engine-steady", speedup=3.0)]
    merged = merge_benchmarks(existing, fresh)
    assert [(r.op, r.model) for r in merged] == \
        [("engine", "tc1"), ("sim", "tc1"), ("dse", "lenet"),
         ("engine-steady", "tc1")]
    assert merged[1].cycles == 90  # refreshed in place
    assert merged[0].speedup_vs_baseline == 2.0  # untouched row survives


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

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BenchError, match="cannot read"):
            load_benchmarks(tmp_path / "absent.json")

    def test_stdout_document_loads_as_baseline(self, tmp_path,
                                               monkeypatch, capsys):
        """``condor bench --format json`` rows carry their op's ``kind``
        label; the printed document loads as a ``--baseline``."""
        import repro.perf.bench as bench_mod
        from repro.cli import main

        monkeypatch.chdir(tmp_path)  # the default --output/--baseline
        for op in KIND:
            monkeypatch.setitem(
                bench_mod._OPS, op,
                lambda model, _op=op, **kw: _result(op=_op, model=model))
        assert main(["bench", "--quick", "--op", "serve", "--op", "sim",
                     "--format", "json", "--output", ""]) == 0
        path = tmp_path / "stdout.json"
        path.write_text(capsys.readouterr().out)
        rows = json.loads(path.read_text())["results"]
        assert [(r.op, r.model) for r in load_benchmarks(path)] == \
            [(r["op"], r["model"]) for r in rows]
        assert main(["bench", "--quick", "--op", "sim", "--baseline",
                     str(path), "--output", ""]) == 0
        # a kind other than the op's own is an unexpected key
        rows[0]["kind"] = "measured"
        path.write_text(json.dumps({"schema": SCHEMA, "results": rows}))
        with pytest.raises(BenchError, match="malformed"):
            load_benchmarks(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"schema": SCHEMA, "results": [{"op": "engine"}]}))
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
