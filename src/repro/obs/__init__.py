"""Telemetry for the Condor reproduction: spans, metrics, quantile
sketches, manifests, per-step metric rows, Chrome-trace export.

The paper's framework is an automation *pipeline*; what makes such a tool
usable is seeing what every stage did and where the time and resources
went (fpgaConvNet-style per-stage reports).  This package is the single
front door for that:

* :mod:`repro.obs.spans` — hierarchical timed spans with contextvar
  parent tracking (``span(...)`` context manager, ``recording()`` to
  activate a collector); a thread starts with an empty context, so it
  sees the caller's span only when run in ``contextvars.copy_context()``;
* :mod:`repro.obs.metrics` — process-wide counters, collect-time
  gauges and summaries (the one distribution type, with streaming
  p50/p95/p99) with Prometheus text exposition and JSON snapshots;
* :mod:`repro.obs.quantiles` — the mergeable O(1)-memory
  :class:`QuantileSketch` behind every quantile above;
* :mod:`repro.obs.manifest` — the per-run ``telemetry.json`` and
  ``timeseries.jsonl`` (one registry snapshot per flow step) written by
  :class:`~repro.flow.condor.CondorFlow`;
* :mod:`repro.obs.analyze` — offline reports/diffs over those
  artifacts (the ``condor obs`` subcommand);
* :mod:`repro.obs.chrometrace` — trace-event JSON for
  https://ui.perfetto.dev, from flow spans and from cycle-level sim
  traces, one track per OS thread.

Everything here is stdlib-only and import-cheap; instrumented modules
pay nothing unless a recorder is active, and ``REPRO_NO_OBS=1`` turns
the whole layer off.
"""

from repro.obs.analyze import (
    diff_manifests,
    span_report,
    summarize_timeseries,
)
from repro.obs.chrometrace import (
    chrome_trace,
    sim_trace_events,
    span_events,
    write_chrome_trace,
)
from repro.obs.manifest import (
    MANIFEST_NAME,
    TIMESERIES_NAME,
    build_manifest,
    git_sha,
    peak_rss_bytes,
    timeseries_row,
    write_manifest,
    write_timeseries,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    Summary,
)
from repro.obs.quantiles import QuantileSketch
from repro.obs.spans import (
    Span,
    SpanRecorder,
    current_recorder,
    current_span,
    no_recording,
    obs_disabled,
    recording,
    span,
)

__all__ = [
    "MANIFEST_NAME",
    "REGISTRY",
    "TIMESERIES_NAME",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "QuantileSketch",
    "Span",
    "SpanRecorder",
    "Summary",
    "build_manifest",
    "chrome_trace",
    "current_recorder",
    "current_span",
    "diff_manifests",
    "git_sha",
    "no_recording",
    "obs_disabled",
    "peak_rss_bytes",
    "recording",
    "sim_trace_events",
    "span",
    "span_events",
    "span_report",
    "summarize_timeseries",
    "timeseries_row",
    "write_chrome_trace",
    "write_manifest",
    "write_timeseries",
]
