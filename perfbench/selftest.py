"""Measurement-sensitivity self-test of the benchmark.

    python3 perfbench/selftest.py [--seed 90210] [--seconds 8]

For each of the layers ``serve``, ``fleet``, ``runtime``, ``hw``,
``nn``, ``dse`` and ``sim``, ``run.py --delay LAYER`` adds a fixed host
delay to one public function of that layer (see ``run.DELAYS``).  The
test then shows three things:

1. on the workload that exercises the layer, the layer's per-layer
   metric rises by at least half the injected delay, and the predicted
   end-to-end metric gets worse by more than its bound;
2. on a workload that bypasses the layer, every measured end-to-end
   metric stays within its bound;
3. every ``modeled_*`` metric, and ``sim.total_cycles``, is exactly
   unchanged.

End-to-end comparisons are made inside one run: ``run.py --delay``
turns the delay on in odd slices only, so the delayed and undelayed
halves see the same machine (this host's speed drifts by tens of
percent over minutes).  Per-layer comparisons use one traced run with
the delay always on against one without.  Exits 1 if any check fails.
Results go to standard output and to ``.perfbench_out/selftest.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DELAYS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}
#: end-to-end metrics measured in the timed phase (set-up and peak RSS
#: are whole-process figures, the same for both halves of a run)
HOST_METRICS = ("host_ops_per_s", "host_p50_ms", "host_p99_ms")
UNDELAYED = "undelayed slices: "

SATURATE = "serve-tc1-saturate"
LENET = "serve-lenet-slo"
ZOO = "build-zoo"

#: layer -> (exercising workload, per-layer metric, per-layer rise
#: expected from the delay, predicted end-to-end metric, bypassing
#: workload)
CASES = {
    "serve": (SATURATE, "serve.admit_us", 100.0, "host_ops_per_s", ZOO),
    "fleet": (SATURATE, "fleet.submit_self_us", 1000.0, "host_ops_per_s",
              ZOO),
    "runtime": (SATURATE, "runtime.enqueue_task_self_us", 1000.0,
                "host_ops_per_s", ZOO),
    "hw": (SATURATE, "hw.estimate_performance_us", 1000.0,
           "host_ops_per_s", ZOO),
    # the delay is per batch of at most 8 rows
    "nn": (LENET, "nn.forward_batch_us_per_row", 2000.0 / 8,
           "host_ops_per_s", ZOO),
    "dse": (ZOO, "dse.explore_ms", 100.0, "host_p50_ms", SATURATE),
    "sim": (ZOO, "sim.simulate_ms", 1000.0, "host_p50_ms", SATURATE),
}


def run(workload: str, seed: int, seconds: float, trace: int,
        delay: str | None = None) -> tuple[dict, dict | None]:
    """One run's metrics, plus those of its undelayed slices when the
    run alternated the delay."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--setup-runs", "1"]
    if delay:
        cmd += ["--delay", delay]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{cmd}: outputs were wrong")
    undelayed = None
    for line in lines:
        if line.startswith(UNDELAYED):
            undelayed = json.loads(line[len(UNDELAYED):])
    return {k: v["value"] for k, v in result["metrics"].items()}, \
        undelayed


def worsening(name: str, base: float, new: float) -> float:
    """Relative change of ``name`` in its worse direction."""
    change = (new - base) / base
    return change if BOUNDS[name]["better"] == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=json.loads(
        (HERE / "spec.json").read_text())["held_out_seed"])
    p.add_argument("--seconds", type=float, default=8.0,
                   help="length of each alternating run")
    args = p.parse_args(argv)
    cache: dict[tuple, dict] = {}

    def undelayed_run(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            cache[workload, trace] = run(
                workload, args.seed, args.seconds / 2 if trace else
                args.seconds, trace)[0]
        return cache[workload, trace]

    rows = []
    ok = True
    for layer, (hot, layer_metric, rise, e2e, cold) in CASES.items():
        print(f"layer {layer}: {hot} and {cold}", flush=True)
        new_hot, base_hot = run(hot, args.seed, args.seconds, 0, layer)
        new_cold, base_cold = run(cold, args.seed, args.seconds, 0, layer)
        base_layer = undelayed_run(hot, 1)
        new_layer = run(hot, args.seed, args.seconds / 2, 1, layer)[0]
        layer_rise = new_layer[layer_metric] - base_layer[layer_metric]
        moved_layer = layer_rise > 0.5 * rise
        e2e_worse = worsening(e2e, base_hot[e2e], new_hot[e2e])
        moved_e2e = e2e_worse > BOUNDS[e2e]["bound"]
        cold_worst = max((worsening(m, base_cold[m], new_cold[m]), m)
                         for m in HOST_METRICS)
        held = cold_worst[0] <= BOUNDS[cold_worst[1]]["bound"]
        modeled_same = all(
            new[m] == undelayed_run(workload, 0)[m]
            for workload, new in ((hot, new_hot), (cold, new_cold))
            for m in new if m.startswith("modeled_"))
        modeled_same &= base_layer["sim.total_cycles"] == \
            new_layer["sim.total_cycles"]
        passed = moved_layer and moved_e2e and held and modeled_same
        ok &= passed
        rows.append({
            "layer": layer, "exercised_by": hot, "bypassed_by": cold,
            "delay": DELAYS[layer][:2],
            "layer_metric": layer_metric,
            "layer_base": base_layer[layer_metric],
            "layer_delayed": new_layer[layer_metric],
            "e2e_metric": e2e, "e2e_worse_share": e2e_worse,
            "bypass_worst_metric": cold_worst[1],
            "bypass_worst_share": cold_worst[0],
            "modeled_unchanged": modeled_same, "passed": passed,
            "hot": {"undelayed": base_hot, "delayed": new_hot},
            "cold": {"undelayed": base_cold, "delayed": new_cold},
        })

    print()
    print("| layer | exercised by | per-layer metric: base -> delayed |"
          " e2e worse by | bypassed by | worst bypass e2e | modeled same |"
          " pass |")
    print("|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['layer']} | {r['exercised_by']} |"
              f" {r['layer_metric']}: {r['layer_base']:.4g} ->"
              f" {r['layer_delayed']:.4g} |"
              f" {r['e2e_metric']} {100 * r['e2e_worse_share']:+.1f}% |"
              f" {r['bypassed_by']} |"
              f" {r['bypass_worst_metric']}"
              f" {100 * r['bypass_worst_share']:+.1f}% |"
              f" {r['modeled_unchanged']} | {r['passed']} |")
    out = ROOT / ".perfbench_out" / "selftest.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "rows": rows}, indent=2) + "\n")
    print(f"\n{'PASS' if ok else 'FAIL'} (details in {out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
