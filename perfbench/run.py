"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-tc1-saturate --seed 1 \\
        --seconds 10 --trace 0

Run it from the repository root (the program is imported from
``src/``).  With ``--trace 0`` the last line of standard output is a
JSON object with every end-to-end metric; with ``--trace 1`` it holds
every per-layer metric, measured from benchmark-side spans (see
``tracing.py``).  Lines before it print each metric with its unit, kind
(``measured`` host time or ``modeled`` virtual/cycle time) and better
direction, and the operations sent, succeeded, failed and shed.

Set-up (import, fleet image build and attach, warm-up) is timed in this
process and in ``--setup-runs - 1`` fresh child processes; ``setup_s``
is the median.

``--delay LAYER`` adds a fixed host delay to one public function of that
layer, for the measurement-sensitivity self-test (``selftest.py``).
With ``--trace 0`` the delay is on in odd slices only: the result line
reports the delayed slices and an ``undelayed slices:`` line the others.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: kinds, meanings and predictions that BENCHMARK.json has no keys for
SPEC = json.loads((HERE / "spec.json").read_text())
#: calibration chunks (~0.1 s) that normalize each set-up time
SETUP_CALIBRATION_CHUNKS = 200


#: layer -> (public function, host delay in seconds, whether to rebind
#: its from-imports in other modules too) for ``--delay``
DELAYS = {
    "serve": ("repro.serve.tenants:AdmissionController.admit", 100e-6,
              True),
    "fleet": ("repro.fleet.manager:FleetManager.submit", 1e-3, True),
    "runtime": ("repro.runtime.opencl:CommandQueue.enqueue_task", 1e-3,
                True),
    # the performance model as the serving runtime calls it; the DSE
    # and the build flow keep the undelayed function
    "hw": ("repro.runtime.opencl:estimate_performance", 1e-3, False),
    "nn": ("repro.nn.engine:ReferenceEngine.run_batch", 2e-3, True),
    "dse": ("repro.dse.explorer:explore", 0.1, True),
    "sim": ("repro.sim.dataflow:simulate_accelerator", 0.5, True),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-runs", type=int, default=5,
                   help="set-ups timed for the setup_s median")
    p.add_argument("--delay", choices=sorted(DELAYS),
                   help="add a fixed host delay to one layer")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(name: str, seed: int):
    """Import the program and set the workload up; returns
    ``(workload, raw seconds, normalized seconds)``.  What the workload
    normalized itself (``setup_calibrated``) counts as it did; the rest
    is normalized by calibration chunks run right after."""
    start = time.perf_counter()
    from workloads import make_workload

    workload = make_workload(name, seed, OUT)
    workload.setup()
    paused, raw, normalized = workload.setup_calibrated
    seconds = time.perf_counter() - start - paused
    from calibration import Calibrator

    chunks = SETUP_CALIBRATION_CHUNKS
    factor = Calibrator.factor(chunks, Calibrator().run(chunks))
    return workload, seconds, (seconds - raw) * factor + normalized


def probe_setups(args, count: int) -> list[float]:
    """Time ``count`` normalized set-ups, each in a fresh child
    process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def middle_mean(values, width: float = 0.2) -> float:
    """The median, estimated as the mean of the middle ``width`` of the
    sorted values (40th to 60th percentile).  Serve latencies form one
    cluster per position in a batch of eight, and the plain median sits
    on the edge between two of them, so it jumps by a whole cluster on
    a slight change in their shares; this estimate moves smoothly."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    n = len(ordered)
    lo = int(n * (0.5 - width / 2))
    hi = max(lo + 1, math.ceil(n * (0.5 + width / 2)))
    return statistics.fmean(ordered[lo:hi])


def tail_quantile(count: int) -> float:
    """p99 when at least ten samples lie beyond it, else the highest
    quantile that still has ten beyond it, but never below the median."""
    if count <= 0:
        return 0.5
    return min(0.99, max(0.5, 1.0 - 10.0 / count))


def slices(outcome, parity: int | None = None, normalize: bool = True):
    """``(ops per second, latencies)`` of each measurement slice, scaled
    to the reference machine speed unless ``normalize`` is False; with
    ``parity``, only of the even (0) or odd (1) slices."""
    lat = outcome.latencies
    marks = outcome.marks
    for index, (start, end) in enumerate(zip(marks, marks[1:])):
        (t0, n0, _), (t1, n1, factor) = start, end
        if n1 <= n0 or t1 <= t0 or parity not in (None, index % 2):
            continue
        if not normalize:
            factor = 1.0
        yield (n1 - n0) / ((t1 - t0) * factor), \
            [x * factor for x in lat[n0:n1]]


def end_to_end(outcome, setup_s: float, parity: int | None = None,
               normalize: bool = True) -> dict:
    parts = list(slices(outcome, parity, normalize))
    median = statistics.median
    values = {
        "setup_s": setup_s,
        "host_ops_per_s": median(rate for rate, _ in parts),
        "host_p50_ms": median(middle_mean(lat) for _, lat in parts) * 1e3,
        "host_p99_ms": median(percentile(lat, tail_quantile(len(lat)))
                              for _, lat in parts) * 1e3,
        "peak_rss_mb": outcome.peak_rss_mb,
        "error_share": outcome.errors / outcome.attempted,
    }
    values.update(outcome.modeled)
    return values


def install_delay(layer: str, always: bool):
    """Delay ``layer``'s function; returns ``(patcher, on_slice)``.

    Unless ``always``, the delay is on in odd slices only, so delayed
    and undelayed slices of one run see the same machine."""
    from patching import Patcher, delayed

    target, seconds, everywhere = DELAYS[layer]
    switch = [always]
    patcher = Patcher()
    if not patcher.wrap(target, lambda fn: delayed(fn, seconds, switch),
                        everywhere=everywhere):
        raise SystemExit(f"delay target {target} not found")

    def on_slice(outcome):
        switch[0] = always or len(outcome.marks) % 2 == 0

    return patcher, on_slice


def report(values: dict, section: str) -> dict:
    """Print every metric of BENCHMARK.json's ``section`` with its unit,
    kind and better direction; return the result line's metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for meta in bench[section]:
        name = meta["name"]
        value = float(values[name])
        metrics[name] = {"value": value, "unit": meta["unit"]}
        print(f"metric {name} = {value:.6g} {meta['unit']}"
              f" ({SPEC[section][name]['kind']},"
              f" {meta['better']} is better)")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not here ({SRC / 'repro'} is"
              " missing); run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload not in SPEC["workloads"]:
        print(f"error: unknown workload {args.workload!r}; known:"
              f" {sorted(SPEC['workloads'])}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload, _, seconds = timed_setup(args.workload, args.seed)
        workload.close()
        print(json.dumps({"setup_s": seconds}))
        return 0

    # byte-compile up front, so no run pays compilation inside set-up
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    workload, raw_setup, own_setup = timed_setup(args.workload, args.seed)
    setups = [own_setup] + probe_setups(args, max(0, args.setup_runs - 1))
    workload.make_inputs()

    hooks = []
    patcher = None
    if args.delay:
        patcher, on_delay_slice = install_delay(args.delay,
                                                always=bool(args.trace))
        hooks.append(on_delay_slice)
    tracer = None
    split = {}
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()

        def start_tracing(outcome):
            # the first 30% of the run is untraced: its rate is the
            # baseline for the tracing overhead
            seconds, ops = outcome.marks[-1][:2]
            if split or seconds < 0.3 * args.seconds:
                return
            split.update(seconds=seconds, ops=ops,
                         counters=workload.layer_counters())
            tracer.install()
            workload.trace_instances(tracer)

        hooks.append(start_tracing)
    def on_slice(outcome):
        for hook in hooks:
            hook(outcome)

    try:
        outcome = workload.run(args.seconds, tracer=tracer,
                               on_slice=on_slice)
    finally:
        if tracer is not None:
            tracer.remove()
        if patcher is not None:
            patcher.restore()
        workload.close()

    print(f"workload {args.workload} seed {args.seed}:"
          f" ops sent {outcome.attempted},"
          f" succeeded {outcome.succeeded}, failed {outcome.failed},"
          f" shed {outcome.shed}, wrong output {outcome.wrong},"
          f" timed {outcome.seconds:.3f} s")
    for note, value in outcome.notes.items():
        print(f"note {note}: {value}")
    e2e = end_to_end(outcome, statistics.median(setups))
    raw = end_to_end(outcome, raw_setup, normalize=False)
    from calibration import REFERENCE_CHUNKS_PER_S, REFERENCE_FILES_PER_S

    cal = outcome.calibration
    print(f"calibration: {cal.chunks / cal.seconds:.6g} chunks/s"
          f" (reference {REFERENCE_CHUNKS_PER_S:g})" + (
              f", {cal.files / cal.file_seconds:.6g} files/s"
              f" (reference {REFERENCE_FILES_PER_S:g})" if cal.files
              else ""))
    print("raw wall clock: " + ", ".join(
        f"{name} {raw[name]:.6g}" for name in
        ("setup_s", "host_ops_per_s", "host_p50_ms", "host_p99_ms")))
    print("slice ops/s: " + ", ".join(
        f"{rate:.5g}" for rate, _ in slices(outcome)))
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"error_share = {e2e['error_share']:.6g}"
          " (measured, lower is better)")
    if args.delay and not args.trace:
        # odd slices ran delayed; the result line reports those
        undelayed = end_to_end(outcome, e2e["setup_s"], parity=0)
        e2e = end_to_end(outcome, e2e["setup_s"], parity=1)
        print("undelayed slices: " + json.dumps(undelayed))
    if args.trace:
        if not split:
            print("error: the run ended before tracing started",
                  file=sys.stderr)
            return 1
        ops = len(outcome.latencies) - split["ops"]
        seconds = outcome.seconds - split["seconds"]
        layer = layer_metrics(tracer, split["counters"],
                              workload.layer_counters(), ops, seconds,
                              (split["ops"], split["seconds"]))
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} kept,"
              f" {tracer.dropped} dropped, written to {path}")
        metrics = report(layer, "per_layer")
    else:
        metrics = report(e2e, "end_to_end")
    correct = outcome.errors == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.errors, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
