"""Metrics registry tests."""

import copy
import json
import re
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import REGISTRY, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("requests_total", "Requests served")
        c.inc()
        c.inc(2)
        assert c.value() == 3
        assert c.total() == 3

    def test_labels_are_independent(self, registry):
        c = registry.counter("calls_total")
        c.inc(verb="put")
        c.inc(verb="put")
        c.inc(verb="get")
        assert c.value(verb="put") == 2
        assert c.value(verb="get") == 1
        assert c.value(verb="delete") == 0
        assert c.total() == 3

    def test_decrease_rejected(self, registry):
        c = registry.counter("ups_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_declaration_is_idempotent(self, registry):
        a = registry.counter("once_total", "help")
        b = registry.counter("once_total")
        assert a is b

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_thread_safety(self, registry):
        c = registry.counter("racy_total")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 4000


class TestGauge:
    def test_labelled(self, registry):
        g = registry.gauge("occupancy")
        g.set_function(lambda: 7, fifo="c1")
        g.set_function(lambda: 2, fifo="c2")
        assert g.value(fifo="c1") == 7
        assert g.value(fifo="c2") == 2
        assert g.value(fifo="c3") == 0.0


class TestGaugeFunction:
    """Collect-time series: read from a callable at every read."""

    def test_every_read_path_sees_the_live_value(self, registry):
        g = registry.gauge("live_depth", "Live depth")
        state = {"depth": 3}
        g.set_function(lambda: state["depth"], server="a")
        g.set_function(lambda: 9, server="b")
        assert g.value(server="a") == 3
        state["depth"] = 5
        assert g.value(server="a") == 5
        assert 'live_depth{server="a"} 5' in registry.to_prometheus()
        assert 'live_depth{server="b"} 9' in g.expose()
        values = {v["labels"]["server"]: v["value"]
                  for v in registry.to_dict()["live_depth"]["values"]}
        assert values == {"a": 5.0, "b": 9.0}
        state["depth"] = 1
        assert registry.scalars()["live_depth"] == 10.0

    def test_none_omits_the_series(self, registry):
        g = registry.gauge("gone_depth")
        g.set_function(lambda: None, server="dead")
        assert g.value(server="dead") == 0.0
        assert g.snapshot()["values"] == []
        assert registry.scalars()["gone_depth"] == 0.0

    def test_reset_keeps_function_series(self, registry):
        # a function series is wiring, not a recorded sample: reset
        # keeps it reading
        g = registry.gauge("kept_depth")
        g.set_function(lambda: 3, server="live")
        registry.reset()
        assert g.value(server="live") == 3
        assert [v["labels"] for v in g.snapshot()["values"]] == \
            [{"server": "live"}]

    def test_function_runs_outside_the_metric_lock(self, registry):
        g = registry.gauge("reentrant_depth")
        # a callable that reads the gauge itself would deadlock if the
        # gauge held its (non-reentrant) lock while calling it
        g.set_function(lambda: 1, server="other")
        g.set_function(lambda: g.value(server="other") + 1,
                       server="self")
        assert g.value(server="self") == 2
        assert registry.scalars()["reentrant_depth"] == 3

    def test_registration_ignores_kill_switch(self, monkeypatch):
        g = REGISTRY.gauge("condor_probe_live_depth")
        monkeypatch.setenv("REPRO_NO_OBS", "1")
        g.set_function(lambda: 4, probe="x")
        assert g.value(probe="x") == 4


class TestSummary:
    def test_observe_and_quantiles(self, registry):
        s = registry.summary("req_seconds", "Request latency")
        for v in range(1, 1001):
            s.observe(v / 1000.0)
        assert s.count() == 1000
        assert s.sum() == pytest.approx(500.5)
        assert s.quantile(0.5) == pytest.approx(0.5, abs=0.01)
        assert s.quantile(0.99) == pytest.approx(0.99, abs=0.01)

    def test_observe_counts_and_sum(self, registry):
        s = registry.summary("latency_seconds")
        for v in (0.05, 0.5, 5.0, 50.0):
            s.observe(v)
        assert s.count() == 4
        assert s.sum() == pytest.approx(55.55)

    def test_streaming_quantile(self, registry):
        s = registry.summary("lat_seconds")
        for v in range(1, 101):
            s.observe(v / 100.0)
        assert s.quantile(0.5) == pytest.approx(0.5, abs=0.02)
        assert s.quantile(0.99) == pytest.approx(0.99, abs=0.02)
        assert s.quantile(0.5, missing="labels") is None

    def test_nan_observation_dropped(self, registry):
        s = registry.summary("z_seconds")
        s.observe(float("nan"))
        assert s.count() == 0
        assert s.snapshot()["values"] == []

    def test_exposition_format(self, registry):
        s = registry.summary("api_seconds", "API latency")
        s.observe(0.25, verb="get")
        text = registry.to_prometheus()
        assert "# TYPE api_seconds summary" in text
        for q in ("0.5", "0.9", "0.95", "0.99"):
            assert f'api_seconds{{verb="get",quantile="{q}"}} 0.25' in text
        assert 'api_seconds_sum{verb="get"} 0.25' in text
        assert 'api_seconds_count{verb="get"} 1' in text

    def test_snapshot_carries_quantiles(self, registry):
        s = registry.summary("s_seconds")
        s.observe(1.0)
        snap = s.snapshot()
        assert snap["type"] == "summary"
        assert snap["values"][0]["count"] == 1
        assert snap["values"][0]["quantiles"]["0.5"] == 1.0

    def test_kind_mismatch_with_counter(self, registry):
        registry.counter("mixed_seconds")
        with pytest.raises(ValueError, match="already registered"):
            registry.summary("mixed_seconds")


class TestCounterSource:
    """Collect-time counter sources: an owner's ledger, read at export."""

    def test_every_read_path_sums_sources_and_pushes(self, registry):
        c = registry.counter("served_total")
        ledger = {"ok": 2, "failed": 0}
        c.add_source(lambda: {(("status", "ok"),): ledger["ok"],
                              (("status", "failed"),): ledger["failed"]})
        c.add_source(lambda: {(("status", "ok"),): 3})
        c.inc(status="ok")
        assert c.value(status="ok") == 6
        assert c.value(status="failed") == 0
        ledger["failed"] = 4
        assert c.value(status="failed") == 4
        assert c.total() == 10
        assert 'served_total{status="ok"} 6' in registry.to_prometheus()
        assert c.snapshot()["values"] == [
            {"labels": {"status": "failed"}, "value": 4.0},
            {"labels": {"status": "ok"}, "value": 6.0}]
        assert registry.scalars()["served_total"] == 10.0

    def test_zero_counts_are_omitted(self, registry):
        c = registry.counter("idle_total")
        c.add_source(lambda: {(): 0})
        assert c.snapshot()["values"] == []
        assert c.expose() == ["# TYPE idle_total counter"]

    def test_label_pairs_are_normalized(self, registry):
        c = registry.counter("batches_total")
        c.add_source(lambda: {(("trigger", "size"), ("size", 8)): 2})
        c.inc(size="8", trigger="size")
        assert c.value(trigger="size", size=8) == 3

    def test_reset_keeps_sources(self, registry):
        c = registry.counter("kept_total")
        c.inc(5)
        c.add_source(lambda: {(): 2})
        registry.reset()
        assert c.value() == 2

    def test_source_runs_outside_the_metric_lock(self, registry):
        c = registry.counter("unlocked_total")
        held = []

        def source():
            held.append(c._lock.locked())
            return {(): 1}
        c.add_source(source)
        c.inc()
        assert c.value() == 2
        assert registry.scalars()["unlocked_total"] == 2
        assert held == [False, False]

    def test_sources_ignore_kill_switch(self, monkeypatch):
        c = REGISTRY.counter("condor_probe_sourced_total")
        monkeypatch.setenv("REPRO_NO_OBS", "1")
        c.add_source(lambda: {(("probe", "x"),): 4})
        c.inc(probe="x")  # a push is still gated
        assert c.value(probe="x") == 4


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _summary_state(summary):
    entry = summary.snapshot()["values"]
    if not entry:
        return None
    entry = entry[0]
    return (entry["labels"], entry["count"], entry["sum"], entry["min"],
            entry["max"], entry["quantiles"])


class TestSummarySource:
    """A summary showing a sketch its owner keeps."""

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(_FLOATS, max_size=600))
    def test_same_state_as_observing(self, values):
        from repro.obs import QuantileSketch

        registry = MetricsRegistry()
        pushed = registry.summary("pushed_seconds")
        sourced = registry.summary("sourced_seconds")
        sketch = QuantileSketch()
        for value in values:
            pushed.observe(value, server="s")
            sketch.observe(value)
        sourced.add_source(lambda: {(("server", "s"),):
                                    copy.deepcopy(sketch)})
        assert _summary_state(sourced) == _summary_state(pushed)
        assert sourced.count(server="s") == len(values)
        if values:
            assert sourced.quantile(0.99, server="s") == \
                pushed.quantile(0.99, server="s")

    def test_shared_label_set_merges(self, registry):
        from repro.obs import QuantileSketch

        s = registry.summary("merged_seconds")
        first, second = QuantileSketch(), QuantileSketch()
        first.observe(1.0)
        second.observe(3.0)
        s.add_source(lambda: {(("server", "a"),): copy.deepcopy(first)})
        s.add_source(lambda: {(("server", "a"),): copy.deepcopy(second),
                              (("server", "empty"),): QuantileSketch()})
        s.observe(2.0, server="a")
        assert s.count(server="a") == 3
        assert s.sum(server="a") == 6.0
        assert [v["labels"] for v in s.snapshot()["values"]] == \
            [{"server": "a"}]
        assert registry.scalars()["merged_seconds_count"] == 3.0
        assert 'merged_seconds_count{server="a"} 3' in s.expose()
        # a read never folds a source into the pushed sketch
        assert s.count(server="a") == 3


class TestExemplars:
    def test_no_span_no_exemplar(self, registry):
        s = registry.summary("plain_seconds")
        s.observe(1.0)
        assert "exemplar" not in s.snapshot()["values"][0]


class TestScalars:
    def test_flat_view_of_every_kind(self, registry):
        registry.counter("c_total").inc(2, kind="a")
        registry.counter("c_total").inc(3, kind="b")
        registry.gauge("g_entries").set_function(lambda: 7)
        h = registry.summary("h_seconds")
        h.observe(0.5, step="a")
        h.observe(2.0, step="b")
        registry.summary("s_seconds").observe(4.0)
        flat = registry.scalars()
        assert flat["c_total"] == 5
        assert flat["g_entries"] == 7
        assert flat["h_seconds_count"] == 2
        assert flat["h_seconds_sum"] == pytest.approx(2.5)
        assert flat["s_seconds_count"] == 1
        assert flat["s_seconds_sum"] == pytest.approx(4.0)

    def test_summary_read_copies_no_sketch(self, registry, monkeypatch):
        """One row per flow step reads every summary: the counts and
        sums are added up in place, pushed series and sources alike."""
        from types import SimpleNamespace

        from repro.obs import QuantileSketch, metrics

        s = registry.summary("copy_free_seconds")
        s.observe(1.0, server="pushed")
        owned = QuantileSketch()
        owned.observe(2.0)
        owned.observe(4.0)
        s.add_source(lambda: {(("server", "sourced"),): owned})

        def deepcopy(*args, **kwargs):
            raise AssertionError("scalars() copied a sketch")
        monkeypatch.setattr(metrics, "copy",
                            SimpleNamespace(deepcopy=deepcopy))
        flat = registry.scalars()
        assert flat["copy_free_seconds_count"] == 3.0
        assert flat["copy_free_seconds_sum"] == 7.0


class TestExpositionRoundTrip:
    def test_text_format_parses_back(self, registry):
        """The exposition is valid Prometheus text: every sample line
        parses, no series repeats, and summaries carry quantile, sum
        and count lines per label set."""
        registry.counter("rt_total", "Round trip").inc(2, verb="put")
        registry.gauge("rt_entries").set_function(lambda: 3)
        h = registry.summary("rt_seconds")
        h.observe(0.05, step="a")
        h.observe(5.0, step="a")
        registry.summary("rt_sum_seconds").observe(0.25)

        sample_re = re.compile(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
            r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""  # first label
            r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
            r" (\+Inf|-?[0-9.e+-]+)$")
        parsed = {}
        for line in registry.to_prometheus().splitlines():
            if not line or line.startswith("#"):
                continue
            m = sample_re.match(line)
            assert m, f"unparseable exposition line: {line!r}"
            series = line.rsplit(" ", 1)[0]
            assert series not in parsed, f"duplicate series {series!r}"
            parsed[series] = float(m.group(4).replace("+Inf", "inf"))

        assert parsed['rt_total{verb="put"}'] == 2
        assert parsed["rt_entries"] == 3
        assert parsed['rt_seconds{step="a",quantile="0.99"}'] == 5.0
        assert parsed['rt_seconds_sum{step="a"}'] == 5.05
        assert parsed['rt_seconds_count{step="a"}'] == 2
        assert not any("_bucket" in series for series in parsed)
        assert parsed['rt_sum_seconds{quantile="0.5"}'] == 0.25


class TestKillSwitch:
    def test_default_registry_gated(self, monkeypatch):
        c = REGISTRY.counter("condor_gate_probe_total")
        before = c.total()
        s = REGISTRY.summary("condor_gate_probe_seconds")
        observed = s.count()
        monkeypatch.setenv("REPRO_NO_OBS", "1")
        c.inc()
        s.observe(1.0)
        assert c.total() == before
        assert s.count() == observed
        monkeypatch.delenv("REPRO_NO_OBS")
        c.inc()
        s.observe(1.0)
        assert c.total() == before + 1
        assert s.count() == observed + 1

    def test_private_registry_stays_live(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_OBS", "1")
        reg = MetricsRegistry()
        reg.counter("live_total").inc()
        reg.summary("live_seconds").observe(1.0)
        assert reg.get("live_total").total() == 1
        assert reg.get("live_seconds").count() == 1


class TestExposition:
    def test_prometheus_format(self, registry):
        c = registry.counter("flow_runs_total", "Flow runs")
        c.inc(status="ok")
        text = registry.to_prometheus()
        assert "# HELP flow_runs_total Flow runs" in text
        assert "# TYPE flow_runs_total counter" in text
        assert 'flow_runs_total{status="ok"} 1' in text
        assert text.endswith("\n")

    def test_json_snapshot_roundtrips(self, registry):
        registry.counter("a_total").inc(5)
        registry.summary("b_seconds").observe(0.5)
        registry.gauge("c_entries").set_function(lambda: 2)
        snap = json.loads(json.dumps(registry.to_dict()))
        assert snap["a_total"]["values"][0]["value"] == 5
        assert snap["b_seconds"]["type"] == "summary"
        assert snap["b_seconds"]["values"][0]["count"] == 1
        assert snap["b_seconds"]["values"][0]["quantiles"]["0.5"] == 0.5
        assert snap["c_entries"]["values"][0]["value"] == 2

    def test_reset_zeroes_but_keeps_declarations(self, registry):
        c = registry.counter("z_total")
        c.inc()
        registry.reset()
        assert c.value() == 0
        assert registry.get("z_total") is c


class TestDefaultRegistry:
    def test_instrumented_metrics_are_declared(self):
        # importing the instrumented modules declares their metrics
        import repro.flow.condor  # noqa: F401
        import repro.sim.core  # noqa: F401
        import repro.cloud.client  # noqa: F401
        import repro.dse.explorer  # noqa: F401

        names = REGISTRY.names()
        for expected in ("condor_flow_steps_started_total",
                         "condor_flow_steps_failed_total",
                         "condor_dse_points_evaluated_total",
                         "condor_sim_cycles_total",
                         "condor_cloud_api_calls_total"):
            assert expected in names
