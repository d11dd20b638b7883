"""The ``condor bench`` regression harness.

Gates the exact (modeled) figures of zoo models — the explorer's best
initiation interval, simulated cycles, the serving path's batching
multiple — plus one measured budget, the telemetry overhead, and writes
the results as ``BENCH_perf.json``::

    {"schema": "condor-bench/v2", "blas_threads": 1,
     "results": [{"op": "sim", "model": "tc1", "wall_s": ...,
                  "cycles": 8363, "speedup_vs_baseline": null}, ...]}

``blas_threads`` is the BLAS thread count every timed GEMM ran on
(:func:`repro.nn.blas.blas_threads`: ``1``, or ``"unpinned"``).
Host time of the serving and build paths, per workload and per stage,
is perfbench's to measure, so no row here times our code against a
slower path.

Per-op semantics:

* ``dse`` — one cold :func:`repro.dse.explore`, the call a
  ``condor build --dse`` makes.  ``cycles`` is the best initiation
  interval it found.
* ``sim`` — :func:`repro.sim.dataflow.simulate_accelerator` on a small
  batch.  ``cycles`` is the simulated total — fully deterministic, so
  the regression gate can hold it to zero drift across machines.
* ``serve`` — the dynamic-batching serving path
  (:mod:`repro.serve`) against the same seeded saturating workload
  served one request per fleet submission.  ``speedup_vs_baseline``
  is the single/batched virtual-makespan ratio — the throughput
  multiple batching buys — fully deterministic, and per-request
  outputs are asserted bit-identical across the two runs first.
* ``obs-overhead`` — batched inference with a live span recorder
  against the same inference with recording suspended and
  ``REPRO_NO_OBS=1``.  ``speedup_vs_baseline`` holds the
  instrumented/plain wall ratio, gated *absolutely* at
  :data:`OBS_OVERHEAD_LIMIT` — telemetry must stay under 5% whatever
  the committed baseline says.

Each op's figure is either *measured* (a host wall-clock ratio) or
*modeled* (virtual device time, modeled or simulated cycles, exact per
seed); :data:`KIND` labels the rows, and ``condor bench`` prints the
label.  ``wall_s`` is informational.

``compare_benchmarks`` diffs a fresh run against a committed baseline:
``cycles`` growth or ``speedup_vs_baseline`` decay beyond the threshold
is a violation; ``wall_s`` is never gated (it is machine-bound, the
gated figures are not).
"""

from __future__ import annotations

import contextlib
import json
import os
import timeit
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.dse import explore
from repro.errors import BenchError
from repro.frontend.weights import WeightStore
from repro.hw.accelerator import build_accelerator
from repro.nn.blas import blas_threads
from repro.nn.engine import ReferenceEngine
from repro.obs import SpanRecorder, no_recording, recording, span
from repro.obs.spans import DISABLE_ENV

SCHEMA = "condor-bench/v2"

#: Absolute ceiling on the ``obs-overhead`` instrumented/plain ratio.
OBS_OVERHEAD_LIMIT = 1.05

#: Whether each op's figure is a host wall-clock ratio (``measured``) or
#: comes from modeled device time or simulated cycles (``modeled``).
KIND = {
    "dse": "modeled",
    "sim": "modeled",
    "serve": "modeled",
    "obs-overhead": "measured",
}


def _zoo_builders() -> dict[str, Callable]:
    from repro.frontend.zoo import (
        cifar10_model,
        lenet_model,
        tc1_model,
        vgg16_model,
    )
    return {"tc1": tc1_model, "lenet": lenet_model,
            "cifar10": cifar10_model, "vgg16": vgg16_model}


def _build(name: str):
    builders = _zoo_builders()
    if name not in builders:
        raise BenchError(f"unknown zoo model {name!r};"
                         f" known: {sorted(builders)}")
    model = builders[name]()
    return model, WeightStore.initialize(model.network)


def _best_of(fn: Callable[[], object], reps: int) -> float:
    """Minimum wall-clock of ``reps`` calls (after the caller's warmup)."""
    best = float("inf")
    for _ in range(max(1, reps)):
        start = timeit.default_timer()
        fn()
        best = min(best, timeit.default_timer() - start)
    return best


@dataclass(frozen=True)
class BenchResult:
    """One benchmark measurement (one row of ``BENCH_perf.json``)."""

    op: str
    model: str
    wall_s: float
    cycles: int | None
    speedup_vs_baseline: float | None

    def key(self) -> tuple[str, str]:
        return (self.op, self.model)


def bench_dse(name: str) -> BenchResult:
    """One cold explorer call; ``cycles`` is the best II it found."""
    with span("bench.dse", model=name):
        model, _ = _build(name)
        start = timeit.default_timer()
        result = explore(model)
        wall_s = timeit.default_timer() - start
    return BenchResult(op="dse", model=name, wall_s=wall_s,
                       cycles=result.performance.ii_cycles,
                       speedup_vs_baseline=None)


def bench_sim(name: str, *, batch: int = 4, reps: int = 1,
              rng_seed: int = 0) -> BenchResult:
    """Event-driven simulation of a small batch; cycles are exact."""
    from repro.sim.dataflow import simulate_accelerator

    with span("bench.sim", model=name, batch=batch):
        model, weights = _build(name)
        acc = build_accelerator(model)
        rng = np.random.default_rng(rng_seed)
        images = rng.normal(
            size=(batch,) + model.network.input_shape().as_tuple()) \
            .astype(np.float32)
        holder: list = [None]

        def run() -> None:
            holder[0] = simulate_accelerator(acc, weights, images)

        wall_s = _best_of(run, reps)
        result = holder[0]
    return BenchResult(op="sim", model=name, wall_s=wall_s,
                       cycles=result.total_cycles,
                       speedup_vs_baseline=None)


@contextlib.contextmanager
def _obs_disabled_env():
    """Set ``REPRO_NO_OBS=1`` for the extent, restoring the old value."""
    saved = os.environ.get(DISABLE_ENV)
    os.environ[DISABLE_ENV] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(DISABLE_ENV, None)
        else:
            os.environ[DISABLE_ENV] = saved


def bench_obs_overhead(name: str, *, batch: int = 32,
                       reps: int = 100, rng_seed: int = 0) -> BenchResult:
    """Cost of the telemetry layer on the serving hot path.

    Interleaves plan-replay inference under a live
    :class:`~repro.obs.spans.SpanRecorder` (spans recorded, sketches
    fed, registry metrics live) with the same inference under
    ``REPRO_NO_OBS=1`` and a suspended recorder, and reports the median
    instrumented/plain wall ratio in ``speedup_vs_baseline``.  CI fails
    the row when the ratio exceeds :data:`OBS_OVERHEAD_LIMIT`.

    Measurement shape: ``reps`` *adjacent single-call pairs*, ratioed
    pairwise and medianed, alternating which side of the pair runs
    first.  Machine drift here moves on the hundreds-of-milliseconds
    scale, so back-to-back calls see the same weather (the pair ratio
    cancels it), the alternation cancels the second-slot-runs-warmer
    bias, and the median over many pairs shrinks what survives —
    best-of-N per side was measurably *worse*, because it widens the
    gap between the two sides of each pair to several drift periods.
    """
    model, weights = _build(name)
    net = model.network
    engine = ReferenceEngine(net, weights, use_plans=True)
    rng = np.random.default_rng(rng_seed)
    images = rng.normal(size=(batch,) + net.input_shape().as_tuple()) \
        .astype(np.float32)
    engine.run_batch(images)  # compile pass, not timed

    def instrumented() -> float:
        with recording(SpanRecorder()):
            return _best_of(lambda: engine.run_batch(images), 1)

    def plain() -> float:
        with _obs_disabled_env(), no_recording():
            return _best_of(lambda: engine.run_batch(images), 1)

    ratios, instr_times = [], []
    for rep in range(max(1, reps)):
        if rep % 2 == 0:
            instr_s, plain_s = instrumented(), plain()
        else:
            plain_s, instr_s = plain(), instrumented()
        ratios.append(instr_s / plain_s)
        instr_times.append(instr_s)
    return BenchResult(op="obs-overhead", model=name,
                       wall_s=float(np.median(instr_times)),
                       cycles=None,
                       speedup_vs_baseline=float(np.median(ratios)))


def bench_serve(name: str, *, requests: int = 2048,
                rate_rps: float = 100_000.0,
                seed: int = 0) -> BenchResult:
    """Dynamic batching vs the batch-size-1 serving path.

    Builds one AFI, then serves the *same* seeded workload twice on
    fresh single-slot fleets over fresh virtual clocks: once with the
    full bucket ladder (requests coalesce into padded batches), once
    with ``buckets=(1,)`` (every request is its own fleet submission).
    The offered rate saturates the slot, so both runs are
    service-limited and ``speedup_vs_baseline`` — the single/batched
    *virtual makespan* ratio — is exactly the throughput multiple that
    batching buys the serving path.  Fully deterministic (modeled
    device time, seeded arrivals), so the regression gate can hold it;
    per-request outputs are asserted bit-identical across the two runs
    before any number is reported.
    """
    from repro.cloud.f1 import F1Instance
    from repro.fleet import (
        FleetConfig,
        FleetManager,
        build_fleet_image,
        servable_model,
    )
    from repro.frontend.condor_format import model_from_json
    from repro.resilience.clock import VirtualClock
    from repro.serve import (
        InferenceServer,
        LoadSpec,
        ServeConfig,
        TenantSpec,
        run_load,
    )
    from repro.toolchain.xclbin import read_xclbin

    with span("bench.serve", model=name, requests=requests):
        service, agfi_id, xclbin_bytes = build_fleet_image(
            servable_model(name), name=f"bench-serve-{name}")
        net = model_from_json(
            read_xclbin(xclbin_bytes).network_json).network
        weights = WeightStore.initialize(net, seed=0)
        tenants = (TenantSpec("bench"),)
        spec = LoadSpec(rate_rps=rate_rps,
                        duration_s=requests / rate_rps, seed=seed,
                        tenants=tenants)

        def run_once(buckets, tag):
            clock = VirtualClock()
            fleet = FleetManager(
                [F1Instance("f1.2xlarge", service)], agfi_id, weights,
                config=FleetConfig(scrub_every=0), clock=clock)
            server = InferenceServer(
                fleet, tenants,
                config=ServeConfig(name=f"bench-{name}-{tag}",
                                   buckets=buckets,
                                   max_queue_depth=10 ** 9),
                clock=clock)
            start = timeit.default_timer()
            report = run_load(server, spec, keep_requests=True)
            return report, timeit.default_timer() - start

        with no_recording():
            batched, batched_wall = run_once((1, 2, 4, 8), "batched")
            single, _ = run_once((1,), "single")
        if batched.completed != batched.offered or \
                single.completed != single.offered:
            raise BenchError(
                f"serve bench shed or failed requests (batched"
                f" {batched.completed}/{batched.offered}, single"
                f" {single.completed}/{single.offered})")
        for left, right in zip(batched.requests, single.requests):
            if not np.array_equal(left.output, right.output):
                raise BenchError(
                    f"serve bench: coalesced output for request"
                    f" {left.request_id} diverges from the"
                    " batch-size-1 path")
        return BenchResult(
            op="serve", model=name, wall_s=batched_wall,
            cycles=None,
            speedup_vs_baseline=single.makespan_s / batched.makespan_s)


#: (op, model, kwargs) rows of the suite: the CI gate and the source of
#: the committed baseline.
SUITE: tuple[tuple[str, str, dict], ...] = (
    ("dse", "tc1", {}),
    ("dse", "lenet", {}),
    ("dse", "vgg16", {}),
    ("sim", "tc1", {"batch": 4}),
    ("sim", "lenet", {"batch": 2}),
    ("serve", "tc1", {}),
    ("obs-overhead", "lenet", {"batch": 64}),
)

_OPS: dict[str, Callable[..., BenchResult]] = {
    "dse": bench_dse,
    "sim": bench_sim,
    "serve": bench_serve,
    "obs-overhead": bench_obs_overhead,
}


def run_bench(*, progress: Callable[[str], None] | None = None) \
        -> list[BenchResult]:
    """Run the suite; returns one result per row."""
    results = []
    with span("bench.suite"):
        for op, model, kwargs in SUITE:
            if progress is not None:
                progress(f"bench {op}:{model} ...")
            results.append(_OPS[op](model, **kwargs))
    return results


# -- persistence + regression gate ------------------------------------------


def write_benchmarks(results: list[BenchResult], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": SCHEMA, "blas_threads": blas_threads(),
           "results": [asdict(r) for r in results]}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _stored_fields(row: dict) -> dict:
    """``row`` without the ``kind`` label ``condor bench --format json``
    adds; a ``kind`` other than :data:`KIND` of the row's op stays, so
    the row is rejected as malformed."""
    if "kind" in row and row["kind"] == KIND.get(row.get("op")):
        return {k: v for k, v in row.items() if k != "kind"}
    return row


def load_benchmarks(path: str | Path) -> list[BenchResult]:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read benchmark file {path}: {exc}") \
            from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise BenchError(
            f"{path} is not a {SCHEMA!r} benchmark file"
            f" (schema={doc.get('schema')!r})"
            if isinstance(doc, dict) else
            f"{path} is not a {SCHEMA!r} benchmark file")
    try:
        return [BenchResult(**_stored_fields(row))
                for row in doc["results"]]
    except (KeyError, TypeError) as exc:
        raise BenchError(f"malformed benchmark row in {path}: {exc}") \
            from exc


def compare_benchmarks(current: list[BenchResult],
                       baseline: list[BenchResult],
                       max_regression: float = 0.20,
                       notes: list[str] | None = None) -> list[str]:
    """Regressions of ``current`` against ``baseline``.

    Gated per matching ``(op, model)`` row: simulated ``cycles`` may not
    grow, and ``speedup_vs_baseline`` may not decay, by more than
    ``max_regression`` (fractional).  ``wall_s`` is never gated — it
    measures the machine, not the code.  Rows present on only one side
    are *informational, never a failure*: a brand-new op must be able
    to land in the same change that refreshes ``BENCH_perf.json``.
    Pass ``notes`` (a list) to collect one message per candidate row
    the baseline lacks, so new-op runs are visible in CI logs instead
    of silently skipped.  ``obs-overhead`` is gated *absolutely* at
    :data:`OBS_OVERHEAD_LIMIT` whether or not the baseline has the row —
    telemetry overhead is a budget, not a trend.
    """
    base = {b.key(): b for b in baseline}
    violations = []
    for cur in current:
        tag = f"{cur.op}:{cur.model}"
        if cur.op == "obs-overhead":
            # a lower ratio is strictly better, so the relative decay
            # check below does not apply; only the ceiling does
            if (cur.speedup_vs_baseline is not None
                    and cur.speedup_vs_baseline > OBS_OVERHEAD_LIMIT):
                violations.append(
                    f"{tag}: telemetry overhead"
                    f" {(cur.speedup_vs_baseline - 1.0) * 100:.1f}%"
                    f" exceeds the"
                    f" {(OBS_OVERHEAD_LIMIT - 1.0) * 100:.0f}% budget")
            continue
        ref = base.get(cur.key())
        if ref is None:
            if notes is not None:
                speedup = (f" (speedup {cur.speedup_vs_baseline:.2f}x)"
                           if cur.speedup_vs_baseline is not None
                           else "")
                notes.append(
                    f"{tag}: not in baseline — informational only;"
                    f" commit a refreshed BENCH_perf.json to gate"
                    f" it{speedup}")
            continue
        if (cur.cycles is not None and ref.cycles is not None
                and ref.cycles > 0
                and cur.cycles > ref.cycles * (1.0 + max_regression)):
            violations.append(
                f"{tag}: cycles regressed {ref.cycles} ->"
                f" {cur.cycles}"
                f" (+{(cur.cycles / ref.cycles - 1.0) * 100:.1f}%,"
                f" limit {max_regression * 100:.0f}%)")
        if (cur.speedup_vs_baseline is not None
                and ref.speedup_vs_baseline is not None
                and ref.speedup_vs_baseline > 0
                and cur.speedup_vs_baseline
                < ref.speedup_vs_baseline * (1.0 - max_regression)):
            violations.append(
                f"{tag}: speedup regressed"
                f" {ref.speedup_vs_baseline:.2f}x ->"
                f" {cur.speedup_vs_baseline:.2f}x"
                f" (limit {max_regression * 100:.0f}%)")
    return violations
