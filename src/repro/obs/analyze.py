"""Offline analytics over telemetry artifacts (the ``condor obs`` CLI).

Three read-only views over what a run left behind:

* :func:`span_report` — per-span-name count / total / p50 / p95 / p99
  from a ``telemetry.json`` manifest's ``span_summaries`` block (the
  O(1)-memory streaming sketches recorded live);
* :func:`diff_manifests` — compare two manifests and flag latency and
  metric regressions beyond configurable thresholds (the CI bench job
  can fail on these);
* :func:`summarize_timeseries` — collapse a ``timeseries.jsonl`` into
  first/last/delta per metric plus RSS growth.

Everything returns plain data; the ``format_*`` helpers render the
fixed-width tables the CLI prints.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

__all__ = [
    "load_manifest",
    "load_timeseries",
    "span_report",
    "diff_manifests",
    "summarize_timeseries",
    "format_report",
    "format_diff",
    "format_timeseries",
]


def load_manifest(path: Path | str) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


def load_timeseries(path: Path | str) -> list[dict[str, Any]]:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            rows.append(json.loads(line))
    return rows


# -- span report --------------------------------------------------------------


def span_report(manifest: dict[str, Any]) -> list[dict[str, Any]]:
    """Per-span-name latency rows, heaviest total first.

    Each row: ``name, count, total_s, mean_s, min_s, max_s, p50_s,
    p95_s, p99_s``, from the manifest's streaming sketches.
    """
    rows: list[dict[str, Any]] = []
    for name, summary in (manifest.get("span_summaries") or {}).items():
        count = summary.get("count", 0)
        total = summary.get("sum", 0.0)
        quantiles = summary.get("quantiles") or {}
        rows.append({
            "name": name,
            "count": count,
            "total_s": total,
            "mean_s": total / count if count else 0.0,
            "min_s": summary.get("min"),
            "max_s": summary.get("max"),
            "p50_s": quantiles.get("0.5"),
            "p95_s": quantiles.get("0.95"),
            "p99_s": quantiles.get("0.99"),
        })
    rows.sort(key=lambda r: r["total_s"], reverse=True)
    return rows


# -- manifest diff ------------------------------------------------------------


#: Breaker states ordered by badness (for the ``breaker`` finding kind).
_BREAKER_RANK = {"closed": 0, "half-open": 1, "open": 2}


def _metric_scalars(metrics: dict[str, Any]) -> dict[str, float]:
    """Flatten a manifest's metrics snapshot to one number per series
    (mirrors ``MetricsRegistry.scalars`` for already-written JSON)."""
    out: dict[str, float] = {}
    for name, snap in (metrics or {}).items():
        values = snap.get("values") or []
        kind = snap.get("type")
        if kind in ("counter", "gauge"):
            out[name] = sum(v.get("value", 0.0) for v in values)
        elif kind in ("histogram", "summary"):  # older manifests: histogram
            out[f"{name}_count"] = float(
                sum(v.get("count", 0) for v in values))
            out[f"{name}_sum"] = sum(v.get("sum", 0.0) for v in values)
    return out


def diff_manifests(baseline: dict[str, Any], current: dict[str, Any], *,
                   latency_threshold: float = 0.25,
                   metric_threshold: float = 0.25,
                   min_seconds: float = 1e-3) -> list[dict[str, Any]]:
    """Regressions of ``current`` versus ``baseline``.

    * ``latency``: a span name whose p95 (or mean when no sketch) grew
      by more than ``latency_threshold`` — spans whose baseline is under
      ``min_seconds`` are skipped (pure noise);
    * ``metric``: a counter-style scalar that grew by more than
      ``metric_threshold`` (only for baseline values > 0);
    * ``rss``: peak RSS grew by more than ``metric_threshold``;
    * ``breaker``: a circuit breaker in the resilience snapshot is in a
      worse state than the baseline, or tripped more often — this is
      how fleet-health regressions (``fleet.*`` slot breakers opening)
      surface in a diff;
    * ``status``: the run stopped succeeding.

    Returns findings sorted worst-ratio first; empty list == clean.
    """
    findings: list[dict[str, Any]] = []

    base_rows = {r["name"]: r for r in span_report(baseline)}
    cur_rows = {r["name"]: r for r in span_report(current)}
    for name, base in base_rows.items():
        cur = cur_rows.get(name)
        if cur is None:
            continue
        before = base.get("p95_s") or base.get("mean_s") or 0.0
        after = cur.get("p95_s") or cur.get("mean_s") or 0.0
        if before < min_seconds or before <= 0.0:
            continue
        ratio = after / before
        if ratio > 1.0 + latency_threshold:
            findings.append({"kind": "latency", "name": name,
                             "measure": "p95_s", "before": before,
                             "after": after, "ratio": ratio})

    base_scalars = _metric_scalars(baseline.get("metrics") or {})
    cur_scalars = _metric_scalars(current.get("metrics") or {})
    for name, before in base_scalars.items():
        after = cur_scalars.get(name)
        if after is None or before <= 0.0:
            continue
        ratio = after / before
        if ratio > 1.0 + metric_threshold:
            findings.append({"kind": "metric", "name": name,
                             "measure": "scalar", "before": before,
                             "after": after, "ratio": ratio})

    base_rss = (baseline.get("process") or {}).get("peak_rss_bytes")
    cur_rss = (current.get("process") or {}).get("peak_rss_bytes")
    if base_rss and cur_rss:
        ratio = cur_rss / base_rss
        if ratio > 1.0 + metric_threshold:
            findings.append({"kind": "rss", "name": "peak_rss_bytes",
                             "measure": "bytes", "before": base_rss,
                             "after": cur_rss, "ratio": ratio})

    base_breakers = (baseline.get("resilience") or {}) \
        .get("breakers") or {}
    cur_breakers = (current.get("resilience") or {}) \
        .get("breakers") or {}
    for name, cur_b in sorted(cur_breakers.items()):
        base_b = base_breakers.get(name) or {}
        before_state = base_b.get("state", "closed")
        after_state = cur_b.get("state", "closed")
        before_rank = _BREAKER_RANK.get(before_state, 0)
        after_rank = _BREAKER_RANK.get(after_state, 0)
        before_opened = base_b.get("opened_count", 0)
        after_opened = cur_b.get("opened_count", 0)
        if after_rank <= before_rank and after_opened <= before_opened:
            continue
        ratio = math.inf if after_rank > before_rank \
            else (after_opened + 1.0) / (before_opened + 1.0)
        findings.append({
            "kind": "breaker", "name": name, "measure": "state",
            "before": f"{before_state} (opened {before_opened}x)",
            "after": f"{after_state} (opened {after_opened}x)",
            "ratio": ratio})

    base_status = (baseline.get("run") or {}).get("status")
    cur_status = (current.get("run") or {}).get("status")
    if base_status == "succeeded" and cur_status not in (None, "succeeded"):
        findings.append({"kind": "status", "name": "run.status",
                         "measure": "status", "before": base_status,
                         "after": cur_status, "ratio": math.inf})

    findings.sort(key=lambda f: f["ratio"], reverse=True)
    return findings


# -- timeseries ---------------------------------------------------------------


def summarize_timeseries(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Collapse per-step rows into growth per metric + RSS trajectory."""
    if not rows:
        return {"samples": 0, "seconds": 0.0,
                "peak_rss_bytes": None, "metrics": {}}
    metrics: dict[str, dict[str, float]] = {}
    for row in rows:
        for name, value in (row.get("metrics") or {}).items():
            entry = metrics.get(name)
            if entry is None:
                metrics[name] = {"first": value, "last": value,
                                 "max": value}
            else:
                entry["last"] = value
                if value > entry["max"]:
                    entry["max"] = value
    for entry in metrics.values():
        entry["delta"] = entry["last"] - entry["first"]
    rss = [r["peak_rss_bytes"] for r in rows
           if r.get("peak_rss_bytes") is not None]
    return {
        "samples": len(rows),
        "seconds": rows[-1]["ts"] - rows[0]["ts"],
        "peak_rss_bytes": {"first": rss[0], "max": max(rss)} if rss
        else None,
        "metrics": metrics,
    }


# -- rendering ----------------------------------------------------------------


def _ms(value: float | None) -> str:
    return "-" if value is None else f"{value * 1e3:.3f}"


def format_report(rows: list[dict[str, Any]],
                  limit: int | None = None) -> str:
    """Fixed-width per-span latency table."""
    if limit is not None:
        rows = rows[:limit]
    if not rows:
        return "no spans recorded"
    width = max(len(r["name"]) for r in rows)
    header = (f"{'span':<{width}}  {'count':>7}  {'total_s':>9}"
              f"  {'p50_ms':>9}  {'p95_ms':>9}  {'p99_ms':>9}"
              f"  {'max_ms':>9}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['name']:<{width}}  {r['count']:>7}"
            f"  {r['total_s']:>9.3f}  {_ms(r['p50_s']):>9}"
            f"  {_ms(r['p95_s']):>9}  {_ms(r['p99_s']):>9}"
            f"  {_ms(r['max_s']):>9}")
    return "\n".join(lines)


def format_diff(findings: list[dict[str, Any]]) -> str:
    if not findings:
        return "no regressions"
    lines = []
    for f in findings:
        if f["kind"] == "status":
            lines.append(f"[status ] run.status: {f['before']}"
                         f" -> {f['after']}")
            continue
        if f["kind"] == "breaker":
            lines.append(f"[breaker] {f['name']}: {f['before']}"
                         f" -> {f['after']}")
            continue
        lines.append(
            f"[{f['kind']:<7}] {f['name']} ({f['measure']}):"
            f" {f['before']:.6g} -> {f['after']:.6g}"
            f"  ({(f['ratio'] - 1.0) * 100.0:+.1f}%)")
    return "\n".join(lines)


def format_timeseries(summary: dict[str, Any],
                      limit: int | None = 20) -> str:
    lines = [f"samples: {summary['samples']}"
             f"  span: {summary['seconds']:.3f}s"]
    rss = summary.get("peak_rss_bytes")
    if rss:
        lines.append(f"peak rss: {rss['first'] / 1e6:.1f} MB ->"
                     f" {rss['max'] / 1e6:.1f} MB")
    moved = sorted(
        (item for item in summary["metrics"].items()
         if item[1]["delta"] != 0),
        key=lambda item: abs(item[1]["delta"]), reverse=True)
    if limit is not None:
        moved = moved[:limit]
    if moved:
        width = max(len(name) for name, _ in moved)
        lines.append(f"{'metric':<{width}}  {'first':>12}  {'last':>12}"
                     f"  {'delta':>12}")
        for name, entry in moved:
            lines.append(f"{name:<{width}}  {entry['first']:>12.6g}"
                         f"  {entry['last']:>12.6g}"
                         f"  {entry['delta']:>+12.6g}")
    else:
        lines.append("no metric movement between first and last sample")
    return "\n".join(lines)
