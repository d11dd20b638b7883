"""Offline telemetry analytics: span report, manifest diff, timeseries."""

import math

import pytest

from repro.obs.analyze import (
    diff_manifests,
    format_diff,
    format_report,
    format_timeseries,
    span_report,
    summarize_timeseries,
)


def _summary(count, total, p50, p95, p99, lo=None, hi=None):
    return {"count": count, "sum": total, "min": lo, "max": hi,
            "quantiles": {"0.5": p50, "0.9": p95, "0.95": p95,
                          "0.99": p99}}


def _manifest(summaries=None, metrics=None, rss=None, status="succeeded"):
    doc = {"schema": 2, "run": {"status": status},
           "span_summaries": summaries or {}, "spans": [],
           "metrics": metrics or {}}
    if rss is not None:
        doc["process"] = {"peak_rss_bytes": rss}
    return doc


class TestSpanReport:
    def test_prefers_streaming_summaries(self):
        manifest = _manifest(summaries={
            "engine.layer": _summary(100, 2.0, 0.01, 0.05, 0.09,
                                     lo=0.005, hi=0.1),
            "flow.step": _summary(5, 10.0, 1.9, 2.4, 2.5),
        })
        rows = span_report(manifest)
        # heaviest total first
        assert [r["name"] for r in rows] == ["flow.step", "engine.layer"]
        layer = rows[1]
        assert layer["count"] == 100
        assert layer["mean_s"] == pytest.approx(0.02)
        assert layer["p95_s"] == 0.05
        assert layer["p99_s"] == 0.09
        assert layer["max_s"] == 0.1

    def test_empty_manifest(self):
        assert span_report(_manifest()) == []


class TestDiff:
    def test_clean_diff(self):
        m = _manifest(summaries={"op": _summary(10, 1.0, 0.1, 0.1, 0.1)})
        assert diff_manifests(m, m) == []

    def test_latency_regression_flagged(self):
        base = _manifest(
            summaries={"op": _summary(10, 1.0, 0.1, 0.10, 0.1)})
        cur = _manifest(
            summaries={"op": _summary(10, 2.0, 0.2, 0.20, 0.2)})
        findings = diff_manifests(base, cur)
        assert len(findings) == 1
        assert findings[0]["kind"] == "latency"
        assert findings[0]["name"] == "op"
        assert findings[0]["ratio"] == pytest.approx(2.0)
        # under a looser threshold the same growth passes
        assert diff_manifests(base, cur, latency_threshold=1.5) == []

    def test_subthreshold_and_noise_spans_skipped(self):
        base = _manifest(summaries={
            "fast": _summary(10, 0.0001, 1e-5, 1e-5, 1e-5),
            "op": _summary(10, 1.0, 0.1, 0.10, 0.1)})
        cur = _manifest(summaries={
            "fast": _summary(10, 0.01, 1e-3, 1e-3, 1e-3),  # noise span
            "op": _summary(10, 1.1, 0.11, 0.11, 0.11)})    # +10% only
        assert diff_manifests(base, cur) == []

    def test_metric_regression_flagged(self):
        base = _manifest(metrics={"condor_retries_total": {
            "type": "counter", "values": [{"value": 4}]}})
        cur = _manifest(metrics={"condor_retries_total": {
            "type": "counter", "values": [{"value": 40}]}})
        findings = diff_manifests(base, cur)
        assert [f["kind"] for f in findings] == ["metric"]
        assert findings[0]["before"] == 4
        assert findings[0]["after"] == 40

    def test_histogram_scalars_compared(self):
        base = _manifest(metrics={"condor_step_seconds": {
            "type": "histogram",
            "values": [{"count": 2, "sum": 1.0}]}})
        cur = _manifest(metrics={"condor_step_seconds": {
            "type": "histogram",
            "values": [{"count": 2, "sum": 9.0}]}})
        findings = diff_manifests(base, cur)
        assert {f["name"] for f in findings} == {"condor_step_seconds_sum"}

    def test_rss_and_status_flagged(self):
        base = _manifest(rss=100_000_000)
        cur = _manifest(rss=200_000_000, status="failed")
        findings = diff_manifests(base, cur)
        kinds = [f["kind"] for f in findings]
        # worst ratio first: status is ranked infinitely bad
        assert kinds == ["status", "rss"]
        assert findings[0]["ratio"] == math.inf

    def test_new_spans_ignored(self):
        base = _manifest()
        cur = _manifest(summaries={"op": _summary(10, 9.0, 1, 1, 1)})
        assert diff_manifests(base, cur) == []

    def test_breaker_state_regression_flagged(self):
        def with_breakers(breakers):
            doc = _manifest()
            doc["resilience"] = {"breakers": breakers}
            return doc
        base = with_breakers({"fleet.i0.slot0": {
            "state": "closed", "opened_count": 0,
            "consecutive_failures": 0}})
        cur = with_breakers({"fleet.i0.slot0": {
            "state": "open", "opened_count": 1,
            "consecutive_failures": 2}})
        findings = diff_manifests(base, cur)
        assert [f["kind"] for f in findings] == ["breaker"]
        assert findings[0]["name"] == "fleet.i0.slot0"
        assert findings[0]["ratio"] == math.inf
        assert findings[0]["before"] == "closed (opened 0x)"
        assert findings[0]["after"] == "open (opened 1x)"
        # same state both sides, no new trips -> clean
        assert diff_manifests(cur, cur) == []
        # more trips at the same state is still a regression
        more = with_breakers({"fleet.i0.slot0": {
            "state": "open", "opened_count": 3,
            "consecutive_failures": 2}})
        (finding,) = diff_manifests(cur, more)
        assert finding["kind"] == "breaker"
        assert finding["ratio"] == pytest.approx(2.0)

    def test_breaker_new_in_current_only_flagged_if_bad(self):
        base = _manifest()
        cur = _manifest()
        cur["resilience"] = {"breakers": {
            "fleet.i0.slot0": {"state": "closed", "opened_count": 0},
            "fleet.i0.slot1": {"state": "half-open",
                               "opened_count": 1}}}
        findings = diff_manifests(base, cur)
        assert [f["name"] for f in findings] == ["fleet.i0.slot1"]


class TestTimeseries:
    def test_summary_of_rows(self):
        rows = [
            {"ts": 100.0, "peak_rss_bytes": 50,
             "metrics": {"a_total": 1, "b_total": 5}},
            {"ts": 101.0, "peak_rss_bytes": 80,
             "metrics": {"a_total": 3, "b_total": 5}},
            {"ts": 102.5, "peak_rss_bytes": 70,
             "metrics": {"a_total": 9, "b_total": 5}},
        ]
        summary = summarize_timeseries(rows)
        assert summary["samples"] == 3
        assert summary["seconds"] == pytest.approx(2.5)
        assert summary["peak_rss_bytes"] == {"first": 50, "max": 80}
        assert summary["metrics"]["a_total"] == {
            "first": 1, "last": 9, "max": 9, "delta": 8}
        assert summary["metrics"]["b_total"]["delta"] == 0

    def test_empty(self):
        summary = summarize_timeseries([])
        assert summary["samples"] == 0
        assert summary["metrics"] == {}


class TestFormatting:
    def test_report_table(self):
        rows = span_report(_manifest(summaries={
            "engine.layer": _summary(4, 0.4, 0.1, 0.11, 0.12,
                                     lo=0.09, hi=0.13)}))
        text = format_report(rows)
        assert "engine.layer" in text
        assert "p95_ms" in text
        assert "110.000" in text  # 0.11 s rendered as ms

    def test_report_empty_and_limit(self):
        assert format_report([]) == "no spans recorded"
        rows = span_report(_manifest(summaries={
            "a": _summary(1, 2.0, 1, 1, 1),
            "b": _summary(1, 1.0, 1, 1, 1)}))
        assert "b" not in format_report(rows, limit=1)

    def test_diff_rendering(self):
        base = _manifest(
            summaries={"op": _summary(10, 1.0, 0.1, 0.10, 0.1)},
            status="succeeded")
        cur = _manifest(
            summaries={"op": _summary(10, 2.0, 0.2, 0.20, 0.2)},
            status="failed")
        text = format_diff(diff_manifests(base, cur))
        assert "run.status: succeeded -> failed" in text
        assert "op" in text and "+100.0%" in text
        assert format_diff([]) == "no regressions"

    def test_breaker_rendering(self):
        text = format_diff([{
            "kind": "breaker", "name": "fleet.i0.slot0",
            "measure": "state", "before": "closed (opened 0x)",
            "after": "open (opened 1x)", "ratio": math.inf}])
        assert text == ("[breaker] fleet.i0.slot0:"
                        " closed (opened 0x) -> open (opened 1x)")

    def test_timeseries_rendering(self):
        rows = [
            {"ts": 0.0, "peak_rss_bytes": 1e6, "metrics": {"a_total": 0}},
            {"ts": 1.0, "peak_rss_bytes": 2e6, "metrics": {"a_total": 7}},
        ]
        text = format_timeseries(summarize_timeseries(rows))
        assert "samples: 2" in text
        assert "peak rss: 1.0 MB -> 2.0 MB" in text
        assert "a_total" in text
