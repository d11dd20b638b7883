"""Per-run manifests and per-step metric rows.

Every :class:`~repro.flow.condor.CondorFlow` run writes a
``telemetry.json`` into its working directory: the span tree, per-step
durations (the *same* numbers carried by
:class:`~repro.flow.condor.FlowResult` — both read the spans), a metrics
snapshot, the resource-estimate / performance numbers, the artifacts the
run left behind, and process stats (peak RSS, span count, the BLAS
thread count every GEMM ran on).  That file is
the machine-readable record later benchmarking sessions diff against.

Next to it the flow writes ``timeseries.jsonl``: one
:func:`timeseries_row` at flow start and one at the end of every step,
each the registry's scalar view plus peak RSS, so a run can be read
stage by stage.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.spans import SpanRecorder

__all__ = [
    "MANIFEST_NAME",
    "TIMESERIES_NAME",
    "git_sha",
    "peak_rss_bytes",
    "build_manifest",
    "write_manifest",
    "timeseries_row",
    "write_timeseries",
]

MANIFEST_NAME = "telemetry.json"
TIMESERIES_NAME = "timeseries.jsonl"
#: Schema 2: ``host.hostname``, ``git_sha``, ``span_summaries``
#: (per-span-name streaming quantiles), and span dicts carry
#: ``thread_id``.
MANIFEST_SCHEMA = 2


@functools.lru_cache(maxsize=1)
def git_sha() -> str | None:
    """The checked-out commit, or ``None`` outside a git checkout.

    Reads ``.git`` directly (HEAD -> ref file or packed-refs) so the
    manifest stays attributable without shelling out to git; cached
    because the answer cannot change within one process run.
    """
    try:
        cwd = Path.cwd()
        for root in (cwd, *cwd.parents):
            git_dir = root / ".git"
            head = git_dir / "HEAD"
            if not head.is_file():
                continue
            content = head.read_text().strip()
            if not content.startswith("ref: "):
                return content or None  # detached HEAD
            ref = content[len("ref: "):]
            ref_file = git_dir / ref
            if ref_file.is_file():
                return ref_file.read_text().strip() or None
            packed = git_dir / "packed-refs"
            if packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        return line.split(" ", 1)[0]
            return None
    except OSError:
        return None
    return None


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, or ``None`` when the
    platform doesn't expose it (``resource`` is POSIX-only)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak if sys.platform == "darwin" else peak * 1024


def _artifact_listing(workdir: Path) -> list[dict[str, Any]]:
    if not workdir.is_dir():
        return []
    out = []
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name != MANIFEST_NAME:
            out.append({"path": str(path.relative_to(workdir)),
                        "bytes": path.stat().st_size})
    return out


def build_manifest(*, recorder: SpanRecorder | None,
                   workdir: Path | str,
                   run: dict[str, Any],
                   steps: list[dict[str, Any]],
                   registry: MetricsRegistry = REGISTRY,
                   snapshots: dict[str, Any] | None = None) \
        -> dict[str, Any]:
    """Assemble the manifest dict.

    ``run`` carries identity fields (network, board, status, timing);
    ``steps`` is the flow's step table (name/seconds/status);
    ``snapshots`` holds structured extras such as the resource estimate.
    """
    # repro.nn imports repro.obs, so this import waits for a call
    from repro.nn.blas import blas_threads

    workdir = Path(workdir)
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "generator": "repro.obs",
        "written_at": time.time(),
        "git_sha": git_sha(),
        "run": dict(run),
        "host": {
            "platform": platform.platform(),
            "hostname": platform.node(),
            "python": platform.python_version(),
            "pid": os.getpid(),
        },
        "process": {
            "peak_rss_bytes": peak_rss_bytes(),
            "blas_threads": blas_threads(),
            "span_count": len(recorder) if recorder is not None else 0,
        },
        "steps": list(steps),
        "spans": recorder.span_tree() if recorder is not None else [],
        "span_summaries":
            recorder.summaries() if recorder is not None else {},
        "metrics": registry.to_dict(),
        "artifacts": _artifact_listing(workdir),
    }
    if snapshots:
        manifest.update(snapshots)
    return manifest


def write_manifest(workdir: Path | str, manifest: dict[str, Any]) -> Path:
    path = Path(workdir) / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path


def timeseries_row(step: str) -> dict[str, Any]:
    """One ``timeseries.jsonl`` row: the default registry's scalar view
    and peak RSS, labelled with the flow step that just ended
    (``"start"`` for the row taken before the first step)."""
    return {"ts": time.time(), "step": step,
            "peak_rss_bytes": peak_rss_bytes(),
            "metrics": REGISTRY.scalars()}


def write_timeseries(workdir: Path | str,
                     rows: list[dict[str, Any]]) -> Path:
    """Write ``rows`` as ``<workdir>/timeseries.jsonl``, one JSON
    object per line."""
    path = Path(workdir) / TIMESERIES_NAME
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path

