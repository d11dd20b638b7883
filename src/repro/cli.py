"""The ``condor`` command-line interface.

Exposes the framework the way the paper's users would drive it::

    condor info   <model>                    # parse + summarize a model
    condor check  <model>                    # static analysis (no build)
    condor build  <model> [--deploy aws-f1]  # run the full flow
    condor dse    <model>                    # explore configurations
    condor simulate <model> --batch N        # event-driven simulation
    condor profile <model>                   # flow + per-step timing
    condor bench [--quick]                   # hot-path benchmarks
    condor obs report <run>                  # span latency quantiles
    condor obs diff <base> <run>             # flag telemetry regressions
    condor obs timeseries <run>              # metrics per flow step
    condor fleet drill                       # fault-kind survival matrix
    condor serve                             # synthetic serving load demo
    condor figure5                           # regenerate Figure 5

``<model>`` is a ``.prototxt`` (with optional ``--weights x.caffemodel``),
a ``.onnx`` file, or a Condor ``.json`` file; the format is picked by
extension.

``build``, ``dse``, ``simulate`` and ``profile`` accept
``--trace-json PATH`` (Chrome trace-event JSON for
https://ui.perfetto.dev) and ``--metrics PATH`` (Prometheus text
exposition of the run's counters).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import CondorError
from repro.flow.condor import CondorFlow, FlowInputs
from repro.frontend.condor_format import DeploymentOption
from repro.obs import REGISTRY, recording, write_chrome_trace


def _model_inputs(path: str, weights: str | None) -> FlowInputs:
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".prototxt":
        return FlowInputs(prototxt=p, caffemodel=weights)
    if suffix == ".onnx":
        return FlowInputs(onnx=p)
    if suffix == ".json":
        return FlowInputs(condor_json=p)
    raise CondorError(
        f"cannot infer the model format of {path!r}; expected .prototxt,"
        " .onnx or .json")


def _load_model(args) -> tuple:
    """Run only the input-analysis step to get (model, weights)."""
    flow = CondorFlow(args.workdir)
    inputs = _model_inputs(args.model, getattr(args, "weights", None))
    return flow._input_analysis(inputs), flow


def _telemetry_outputs(args, recorder) -> None:
    """Honour the global ``--trace-json`` / ``--metrics`` flags."""
    if getattr(args, "trace_json", None):
        path = write_chrome_trace(args.trace_json, recorder=recorder)
        print(f"trace written to {path} (open at https://ui.perfetto.dev)")
    if getattr(args, "metrics", None):
        path = Path(args.metrics)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(REGISTRY.to_prometheus())
        print(f"metrics written to {path}")


def cmd_info(args) -> int:
    (model, weights), _ = _load_model(args)
    net = model.network
    print(f"network: {net.name}")
    print(f"input:   {net.input_shape()}   output: {net.output_shape()}")
    from repro.ir.flops import network_flops, network_macs
    print(f"MACs:    {network_macs(net):,}   FLOPs:"
          f" {network_flops(net):,}")
    print(f"parameters: {weights.total_parameters():,}")
    print()
    print(net.summary())
    return 0


def _zoo_models() -> list:
    from repro.frontend.zoo import (
        cifar10_model,
        lenet_model,
        tc1_model,
        vgg16_model,
    )
    return [tc1_model(), lenet_model(), cifar10_model(), vgg16_model()]


def cmd_check(args) -> int:
    """Run the static analyzer; no hardware is generated on disk."""
    import json as _json

    from repro.analysis import PASS_REGISTRY, Severity, check_model
    from repro.frontend.weights import WeightStore

    if args.list_passes:
        width = max(len(pass_id) for pass_id in PASS_REGISTRY)
        for pass_id, cls in PASS_REGISTRY.items():
            print(f"{pass_id:<{width}}  {cls.description}")
        return 0
    if bool(args.model) == bool(args.zoo):
        raise CondorError("provide a model file or --zoo (not both)")

    if args.zoo:
        models = [(m, None) for m in _zoo_models()]
    else:
        (model, weights), _ = _load_model(args)
        models = [(model, weights if weights.layers() else None)]

    select = args.select.split(",") if args.select else None
    fail_rank = Severity(args.fail_on).rank
    worst_rank = Severity.INFO.rank + 1
    reports = []
    with recording() as recorder:
        for model, weights in models:
            if weights is None:
                weights = WeightStore.initialize(model.network)
            report = check_model(model, weights=weights, select=select)
            reports.append(report)
    for report in reports:
        for diag in report:
            worst_rank = min(worst_rank, diag.severity.rank)
    if args.format == "json":
        docs = [r.to_dict() for r in reports]
        print(_json.dumps(docs[0] if not args.zoo else docs, indent=2))
    else:
        for report in reports:
            print(report.render())
            print()
    _telemetry_outputs(args, recorder)
    return 1 if worst_rank <= fail_rank else 0


def cmd_build(args) -> int:
    flow = CondorFlow(args.workdir, check=not args.no_check,
                      resume=args.resume)
    inputs = _model_inputs(args.model, args.weights)
    inputs.deployment = (DeploymentOption.AWS_F1 if args.deploy == "aws-f1"
                         else DeploymentOption.ON_PREMISE)
    if args.frequency:
        from repro.util.units import parse_freq
        inputs.frequency_hz = parse_freq(args.frequency)
    if args.board:
        inputs.board = args.board
    inputs.run_dse = args.dse
    inputs.afi_max_polls = args.afi_max_polls
    result = flow.run(inputs)
    print(result.summary())
    if result.degraded:
        print(f"\nWARNING: {result.degradation}")
        print("AFI creation failed; local artifacts were kept and the"
              " run status is 'partial'.  Re-run with --resume to retry"
              " only the cloud step.")
    print(f"\nartifacts in {result.workdir}")
    for step in result.steps:
        note = "  (restored from checkpoint)" if step.skipped else ""
        print(f"  {step.name}: {step.seconds:.2f}s{note}")
    _telemetry_outputs(args, flow.recorder)
    return 0


def _chaos_fleet_exercise(flow, result, seed: int) -> dict:
    """Serve a short fleet workload under the armed fault plan.

    Runs inside the chaos ``inject_faults`` context after a flow run
    produced an AFI: one f1.4xlarge is launched from the flow's AWS
    session and a paced workload (plus a final verified submission)
    exercises the device-level fault kinds end to end.
    """
    import numpy as np

    from repro.errors import FleetError
    from repro.fleet import FleetConfig, FleetManager
    from repro.frontend.weights import WeightStore
    from repro.resilience.clock import VirtualClock

    clock = VirtualClock()
    instance = flow.aws.run_f1_instance("f1.4xlarge")
    net = result.model.network
    weights = WeightStore.initialize(net)
    config = FleetConfig(scrub_every=2, recovery_s=120.0, capacity=4)
    fleet = FleetManager([instance], result.agfi_id, weights,
                         config=config, clock=clock)
    rng = np.random.default_rng(seed * 7919 + 3)
    in_shape = net.input_shape().as_tuple()
    errors = 0
    for _ in range(6):
        images = rng.standard_normal((2,) + in_shape).astype(np.float32)
        try:
            fleet.run(images)
        except FleetError:
            errors += 1
        clock.sleep(30.0)
    clock.sleep(config.recovery_s)
    final = rng.standard_normal((2,) + in_shape).astype(np.float32)
    golden = fleet.golden.forward_batch(final).reshape(2, -1)
    try:
        bit_correct = bool(np.array_equal(
            fleet.run(final, verify=True), golden))
    except FleetError:
        bit_correct = False
    stats = fleet.stats()
    return {
        "bit_correct": bit_correct,
        "errors": errors,
        "healthy_slots": stats["healthy_slots"],
        "quarantined": stats["quarantined"],
        "actions": stats["actions"],
    }


def cmd_chaos(args) -> int:
    """Chaos-test the flow: seeded fault plans over the cloud/toolchain
    boundaries — and, unless ``--no-devices``, over the FPGA slots of a
    post-build fleet exercise — reporting survival statistics."""
    import json
    import shutil

    from repro.frontend.condor_format import CondorModel
    from repro.resilience import FaultPlan, inject_faults

    if args.zoo:
        # vgg16 is excluded: it does not fit the F1 device without DSE,
        # and the chaos matrix runs the AWS deployment end to end
        models = [m for m in _zoo_models() if m.network.name != "vgg16"]
    elif args.model:
        (model, _weights), _ = _load_model(args)
        models = [model]
    else:
        raise CondorError("provide a model file or --zoo")

    base = Path(args.workdir) / "chaos"
    runs = []
    for model in models:
        model = CondorModel(network=model.network, board=model.board,
                            frequency_hz=model.frequency_hz,
                            deployment=DeploymentOption.AWS_F1,
                            hints=model.hints)
        for seed in range(args.seeds):
            include_devices = not args.no_devices
            plan = FaultPlan.random(seed,
                                    include_devices=include_devices)
            workdir = base / f"{model.network.name}-seed{seed}"
            if workdir.exists():
                shutil.rmtree(workdir)
            flow = CondorFlow(workdir)
            status, error, fleet = "ok", None, None
            try:
                with inject_faults(plan):
                    result = flow.run(FlowInputs(model=model))
                    if include_devices and result.agfi_id:
                        fleet = _chaos_fleet_exercise(flow, result, seed)
                if result.degraded:
                    status, error = "partial", result.degradation
            except CondorError as exc:
                status, error = "error", f"{type(exc).__name__}: {exc}"
            if fleet is not None and not fleet["bit_correct"]:
                status = "error"
                error = "fleet exercise outputs diverged from golden"
            runs.append({
                "network": model.network.name,
                "seed": seed,
                "status": status,
                "error": error,
                "faults": plan.stats(),
                "fleet": fleet,
                "resilience": flow.resilience,
            })

    survived = [r for r in runs if r["status"] in ("ok", "partial")]
    summary = {
        "runs": len(runs),
        "survived": len(survived),
        "ok": sum(1 for r in runs if r["status"] == "ok"),
        "partial": sum(1 for r in runs if r["status"] == "partial"),
        "error": sum(1 for r in runs if r["status"] == "error"),
        "faults_injected": sum(r["faults"]["injected_total"]
                               for r in runs),
        "retries": sum(sum(r["resilience"].get("retries", {}).values())
                       for r in runs),
    }
    if args.format == "json":
        print(json.dumps({"summary": summary, "runs": runs}, indent=2))
    else:
        from repro.util.tables import TextTable
        table = TextTable(["network", "seed", "status", "faults",
                           "retries", "fleet", "detail"])
        for r in runs:
            fleet = r["fleet"]
            if fleet is None:
                fleet_note = "-"
            elif fleet["bit_correct"]:
                fleet_note = "ok" if not fleet["quarantined"] \
                    else "degraded"
            else:
                fleet_note = "FAIL"
            table.add_row([
                r["network"], r["seed"], r["status"],
                r["faults"]["injected_total"],
                sum(r["resilience"].get("retries", {}).values()),
                fleet_note,
                r["error"] or "",
            ])
        print(table.render())
        print(f"\n{summary['survived']}/{summary['runs']} runs survived"
              f" ({summary['ok']} ok, {summary['partial']} partial,"
              f" {summary['error']} error);"
              f" {summary['faults_injected']} faults injected,"
              f" {summary['retries']} retries")
    return 0 if len(survived) == len(runs) else 1


def cmd_fleet_drill(args) -> int:
    """Run the fleet survival drill and render the matrix."""
    import json as _json

    from repro.fleet import run_drill

    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip()) \
        if args.kinds else None
    report = run_drill(seeds=tuple(range(args.seeds)), kinds=kinds)
    if args.json_out:
        path = Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(report, indent=2))
        print(f"report written to {path}", file=sys.stderr)
    if args.format == "json":
        print(_json.dumps(report, indent=2))
    else:
        from repro.util.tables import TextTable
        table = TextTable(["kind", "seed", "status", "expected",
                           "bit-correct", "faults", "recovery actions",
                           "quarantined"])
        for cell in report["cells"]:
            table.add_row([
                cell["kind"], cell["seed"], cell["status"],
                cell["expected"],
                "yes" if cell["bit_correct"] else "NO",
                cell["injected_total"],
                ",".join(cell["recovery_actions"]) or "absorbed",
                ",".join(cell["quarantined"]) or "-",
            ])
        print(table.render())
        print(f"\n{report['cells_total']} cell(s);"
              f" recoverable kinds fully recovered:"
              f" {report['survived_recoverable']};"
              f" all as expected: {report['all_as_expected']}")
    if args.fail_on == "recoverable":
        ok = report["survived_recoverable"] and not report["any_failed"]
        return 0 if ok else 1
    if args.fail_on == "failed":
        return 0 if not report["any_failed"] else 1
    return 0


def _parse_tenants(spec: str) -> tuple:
    """``name[:weight[:quota_rps]],...`` → tenant specs.

    Weight defaults to 1, quota to unlimited; ``0`` (or omitted) quota
    means unlimited.
    """
    import math

    from repro.serve import TenantSpec

    tenants = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        try:
            weight = float(fields[1]) if len(fields) > 1 and fields[1] \
                else 1.0
            quota = float(fields[2]) if len(fields) > 2 and fields[2] \
                else 0.0
        except ValueError as exc:
            raise CondorError(
                f"bad tenant spec {part!r} (want"
                f" name[:weight[:quota_rps]]): {exc}") from None
        tenants.append(TenantSpec(
            fields[0], quota_rps=quota if quota > 0 else math.inf,
            weight=weight))
    if not tenants:
        raise CondorError(f"no tenants in {spec!r}")
    return tuple(tenants)


def cmd_serve(args) -> int:
    """Serve a seeded synthetic load on a simulated fleet."""
    import json as _json

    from repro.cloud.f1 import F1Instance
    from repro.obs import build_manifest, write_manifest
    from repro.resilience.clock import VirtualClock
    from repro.serve import (
        Autoscaler,
        AutoscalerConfig,
        InferenceServer,
        LoadSpec,
        ServeConfig,
        build_serving_fleet,
        run_load,
    )

    tenants = _parse_tenants(args.tenants)
    try:
        buckets = tuple(int(b) for b in args.buckets.split(",")
                        if b.strip())
    except ValueError as exc:
        raise CondorError(f"bad --buckets {args.buckets!r}: {exc}") \
            from None
    clock = VirtualClock()
    with recording() as recorder:
        fleet, service = build_serving_fleet(
            args.model, instances=args.instances,
            instance_type=args.instance_type, clock=clock)
        server = InferenceServer(
            fleet, tenants,
            config=ServeConfig(name=args.model,
                               slo_s=args.slo_ms / 1e3,
                               buckets=buckets,
                               max_queue_depth=args.max_queue),
            clock=clock)
        autoscaler = None
        if args.autoscale:
            def launch() -> F1Instance:
                return F1Instance(args.instance_type, service)
            autoscaler = Autoscaler(
                server, launch,
                config=AutoscalerConfig(
                    max_instances=args.max_instances))
        spec = LoadSpec(rate_rps=args.rate, duration_s=args.duration,
                        seed=args.seed, tenants=tenants)
        report = run_load(server, spec, autoscaler=autoscaler)
    doc = report.to_dict()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(
        recorder=recorder,
        run={"command": "serve", "network": args.model,
             "rate_rps": args.rate, "duration_s": args.duration,
             "seed": args.seed, "status": "ok"},
        steps=[], snapshots={"serve": doc})
    manifest_path = write_manifest(workdir, manifest)
    print(f"telemetry manifest written to {manifest_path}",
          file=sys.stderr)
    if args.report:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(_json.dumps(doc, indent=2) + "\n")
        print(f"load report written to {report_path}", file=sys.stderr)
    if args.format == "json":
        print(_json.dumps(doc, indent=2))
    else:
        def ms(value) -> str:
            return f"{value * 1e3:.2f}ms" if value is not None else "-"
        latency = doc["latency"]
        print(f"model {doc['model']}: {doc['completed']}/"
              f"{doc['offered']} requests in {doc['makespan_s']:.3f}s"
              f" virtual -> {doc['throughput_rps']:.0f} req/s")
        print(f"latency p50 {ms(latency['p50_s'])} "
              f" p95 {ms(latency['p95_s'])} "
              f" p99 {ms(latency['p99_s'])} "
              f" max {ms(latency['max_s'])}")
        print(f"batches {doc['batches']} triggers {doc['triggers']}"
              f" padded {doc['padded_samples']}")
        print(f"shed {sum(doc['shed'].values())} ({doc['shed']}) "
              f" failed {doc['failed']} "
              f" instances {doc['fleet']['instances']} "
              f" autoscale events {len(doc['autoscale'])}")
    _telemetry_outputs(args, recorder)
    if args.fail_under_rps and \
            doc["throughput_rps"] < args.fail_under_rps:
        print(f"throughput {doc['throughput_rps']:.0f} req/s is under"
              f" the --fail-under-rps {args.fail_under_rps:g} floor",
              file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    """Run the full flow and report where the time went."""
    flow = CondorFlow(args.workdir, check=not args.no_check)
    inputs = _model_inputs(args.model, args.weights)
    if args.frequency:
        from repro.util.units import parse_freq
        inputs.frequency_hz = parse_freq(args.frequency)
    if args.board:
        inputs.board = args.board
    inputs.run_dse = args.dse
    result = flow.run(inputs)
    print(f"profile of {result.model.network.name}"
          f" ({result.xclbin.part})\n")
    print(result.profile_table())
    manifest_note = (f"  manifest:  {result.telemetry_path}"
                     if result.telemetry_path else "")
    trace_path = args.trace_json or (result.workdir / "trace.json")
    write_chrome_trace(trace_path, recorder=flow.recorder)
    print(f"\nspans recorded: {len(flow.recorder)}")
    if manifest_note:
        print(manifest_note)
    print(f"  trace:     {trace_path}"
          " (open at https://ui.perfetto.dev)")
    if args.metrics:
        path = Path(args.metrics)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(REGISTRY.to_prometheus())
        print(f"  metrics:   {path}")
    return 0


def cmd_dse(args) -> int:
    with recording() as recorder:
        (model, _), _ = _load_model(args)
        from repro.dse import explore
        result = explore(model)
    print(f"explored {len(result.explored)} configurations in"
          f" {result.steps} steps"
          f" ({result.cache_misses} evaluated,"
          f" {result.cache_hits} cache hits)")
    print(f"best II: {result.performance.ii_cycles} cycles "
          f"({result.performance.gflops():.2f} GFLOPS at"
          f" {model.frequency_hz / 1e6:.0f} MHz)")
    print("\nchosen mapping:")
    for pe in result.mapping.pes:
        print(f"  {pe.name}: {','.join(pe.layer_names)}"
              f"  in={pe.in_parallel} out={pe.out_parallel}")
    _telemetry_outputs(args, recorder)
    return 0


def cmd_simulate(args) -> int:
    import numpy as np

    with recording() as recorder:
        (model, weights), _ = _load_model(args)
        from repro.frontend.weights import WeightStore
        from repro.hw.accelerator import build_accelerator
        from repro.hw.perf import estimate_performance
        from repro.sim.dataflow import simulate_accelerator

        net = model.network
        if not weights.layers():
            weights = WeightStore.initialize(net)
        acc = build_accelerator(model)
        if not args.no_check:
            from repro.analysis import check_model
            from repro.errors import AnalysisError
            report = check_model(model, weights=weights, accelerator=acc)
            if not report.ok:
                print(report.render(), file=sys.stderr)
                raise AnalysisError(
                    f"static analysis found {len(report.errors)}"
                    " error(s); rerun with --no-check to simulate"
                    " anyway", report=report)
        rng = np.random.default_rng(args.seed)
        images = rng.normal(
            size=(args.batch,) + net.input_shape().as_tuple()) \
            .astype(np.float32)
        result = simulate_accelerator(acc, weights, images)
        perf = estimate_performance(acc)
    print(f"simulated batch of {args.batch}: {result.total_cycles} cycles"
          f" ({result.mean_time_per_image(acc.frequency_hz) * 1e6:.2f}"
          " us/image)")
    print(f"closed-form model: {perf.batch_cycles(args.batch)} cycles")
    print("per-PE busy cycles:")
    for name, busy in result.pe_busy_cycles.items():
        blocked = result.pe_blocked_cycles[name]
        print(f"  {name}: busy={busy} blocked={blocked}")
    _telemetry_outputs(args, recorder)
    return 0


def cmd_bench(args) -> int:
    """Time the hot paths on zoo models and gate against a baseline."""
    import json as _json

    from repro.perf.bench import (
        KIND,
        compare_benchmarks,
        load_benchmarks,
        merge_benchmarks,
        run_bench,
        write_benchmarks,
    )
    from repro.util.tables import TextTable

    ops = set(args.op) if args.op else None
    with recording() as recorder:
        results = run_bench(quick=args.quick, ops=ops,
                            progress=lambda msg: print(msg,
                                                       file=sys.stderr))

    violations = []
    notes: list[str] = []
    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is not None and baseline_path.exists():
        baseline = load_benchmarks(baseline_path)
        violations = compare_benchmarks(
            results, baseline, max_regression=args.max_regression,
            notes=notes)
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    elif baseline_path is not None:
        print(f"note: baseline {baseline_path} not found; nothing to"
              " compare against", file=sys.stderr)

    # load the baseline *before* writing: --output may point at it
    if args.output:
        to_write = results
        out_path = Path(args.output)
        if ops is not None and out_path.exists():
            # a partial (--op) run refreshes only its own rows
            to_write = merge_benchmarks(load_benchmarks(out_path),
                                        results)
        path = write_benchmarks(to_write, out_path)
        print(f"benchmarks written to {path}", file=sys.stderr)

    if args.format == "json":
        from dataclasses import asdict

        from repro.nn.blas import blas_threads
        print(_json.dumps({"schema": "condor-bench/v1",
                           "blas_threads": blas_threads(),
                           "results": [dict(asdict(r), kind=KIND[r.op])
                                       for r in results],
                           "violations": violations}, indent=2))
    else:
        table = TextTable(["op", "model", "kind", "wall (s)", "cycles",
                           "cache hits", "speedup"],
                          float_format="{:.4g}")
        for r in results:
            table.add_row([
                r.op, r.model, KIND[r.op], r.wall_s,
                r.cycles if r.cycles is not None else "-",
                r.cache_hits if r.cache_hits is not None else "-",
                f"{r.speedup_vs_baseline:.2f}x"
                if r.speedup_vs_baseline is not None else "-",
            ])
        print(table.render())
    _telemetry_outputs(args, recorder)
    if violations:
        print(f"\n{len(violations)} regression(s) beyond"
              f" {args.max_regression * 100:.0f}%:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


def _obs_manifest(path: str) -> dict:
    """Load a manifest from a file path or a workdir containing one."""
    from repro.obs import MANIFEST_NAME
    from repro.obs.analyze import load_manifest

    p = Path(path)
    if p.is_dir():
        p = p / MANIFEST_NAME
    if not p.is_file():
        raise CondorError(
            f"no telemetry manifest at {p}; run a flow with telemetry"
            " enabled (the default) first")
    return load_manifest(p)


def cmd_obs_report(args) -> int:
    """Per-span-name latency quantiles from a run's manifest."""
    import json as _json

    from repro.obs.analyze import format_report, span_report

    rows = span_report(_obs_manifest(args.run))
    key = {"total": "total_s", "count": "count", "p50": "p50_s",
           "p95": "p95_s", "p99": "p99_s", "max": "max_s"}[args.sort]
    rows.sort(key=lambda r: r.get(key) or 0, reverse=True)
    if args.format == "json":
        print(_json.dumps(rows[:args.limit] if args.limit else rows,
                          indent=2))
    else:
        print(format_report(rows, limit=args.limit))
    return 0


def cmd_obs_diff(args) -> int:
    """Compare two manifests and flag telemetry regressions."""
    import json as _json

    from repro.obs.analyze import diff_manifests, format_diff

    findings = diff_manifests(
        _obs_manifest(args.baseline), _obs_manifest(args.run),
        latency_threshold=args.latency_threshold,
        metric_threshold=args.metric_threshold)
    if args.format == "json":
        print(_json.dumps(findings, indent=2))
    else:
        print(format_diff(findings))
    return 1 if findings and args.fail_on_regress else 0


def cmd_obs_timeseries(args) -> int:
    """Summarize a run's per-step metric rows (``timeseries.jsonl``)."""
    import json as _json

    from repro.obs import TIMESERIES_NAME
    from repro.obs.analyze import (
        format_timeseries,
        load_timeseries,
        summarize_timeseries,
    )

    p = Path(args.run)
    if p.is_dir():
        p = p / TIMESERIES_NAME
    if not p.is_file():
        raise CondorError(
            f"no time series at {p}; run a flow with telemetry enabled"
            " (the default) first")
    summary = summarize_timeseries(load_timeseries(p))
    if args.format == "json":
        print(_json.dumps(summary, indent=2))
    else:
        print(format_timeseries(summary, limit=args.limit))
    return 0


def cmd_figure5(args) -> int:
    from repro.eval.figure5 import figure5_series, render_figure5
    print(render_figure5(figure5_series()))
    return 0


def cmd_convert(args) -> int:
    """Convert between the supported model formats.

    The target format comes from the output extension: ``.onnx``,
    ``.json`` (Condor), or ``.prototxt`` (Caffe; a sibling
    ``.caffemodel`` is written when weights exist).
    """
    from pathlib import Path

    from repro.frontend.condor_format import CondorModel, save_condor_json

    (model, weights), _ = _load_model(args)
    out = Path(args.output)
    suffix = out.suffix.lower()
    if suffix == ".onnx":
        from repro.frontend.onnx import save_onnx

        save_onnx(model.network, out,
                  weights if weights.layers() else None)
        written = [out]
    elif suffix == ".json":
        save_condor_json(model, out)
        if weights.layers():
            weights.save(out.parent / (out.stem + "_weights"))
        written = [out]
    elif suffix == ".prototxt":
        from repro.frontend.caffe import save_caffe_files

        prototxt, caffemodel = save_caffe_files(
            model.network, out.parent,
            weights if weights.layers() else None,
            basename=out.stem)
        written = [prototxt] + ([caffemodel] if caffemodel else [])
    else:
        raise CondorError(
            f"unknown target format {suffix!r}; use .onnx, .json or"
            " .prototxt")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    from repro.eval.report import full_report, write_report
    if args.output:
        path = write_report(args.output)
        print(f"report written to {path}")
    else:
        print(full_report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condor",
        description="CNN-to-FPGA dataflow acceleration framework"
                    " (Condor reproduction)")
    parser.add_argument("--workdir", default="condor-work",
                        help="artifact directory (default: condor-work)")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="summarize a model")
    info.add_argument("model")
    info.add_argument("--weights", help="caffemodel for .prototxt input")
    info.set_defaults(func=cmd_info)

    def telemetry_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-json", metavar="PATH",
                       help="write a Chrome trace-event JSON"
                            " (chrome://tracing / Perfetto)")
        p.add_argument("--metrics", metavar="PATH",
                       help="write a Prometheus text-format metrics dump")

    def check_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-check", action="store_true",
                       help="skip the static-analysis gate")

    check = sub.add_parser(
        "check", help="run the static analyzer over a model (or the"
                      " whole zoo) without building anything")
    check.add_argument("model", nargs="?",
                       help="model file; omit with --zoo")
    check.add_argument("--weights", help="caffemodel for .prototxt input")
    check.add_argument("--zoo", action="store_true",
                       help="check the built-in TC1/LeNet/CIFAR10/VGG-16"
                            " models")
    check.add_argument("--select", metavar="PASSES",
                       help="comma-separated pass ids to run (default:"
                            " all; see --list-passes)")
    check.add_argument("--list-passes", action="store_true",
                       help="list the registered analysis passes")
    check.add_argument("--format", choices=["text", "json"],
                       default="text")
    check.add_argument("--fail-on", choices=["error", "warning"],
                       default="error",
                       help="lowest severity that makes the exit code 1")
    telemetry_flags(check)
    check.set_defaults(func=cmd_check)

    build = sub.add_parser("build", help="run the full automation flow")
    build.add_argument("model")
    build.add_argument("--weights")
    build.add_argument("--deploy", choices=["on-premise", "aws-f1"],
                       default="on-premise")
    build.add_argument("--frequency", help="e.g. 180MHz")
    build.add_argument("--board")
    build.add_argument("--dse", action="store_true",
                       help="run the design-space explorer")
    build.add_argument("--resume", action="store_true",
                       help="skip steps whose checkpoints are still"
                            " fresh (re-runs from the first stale or"
                            " failed step)")
    build.add_argument("--afi-max-polls", type=int, metavar="N",
                       help="describe-fpga-images poll budget for the"
                            " AFI wait (aws-f1 deployments)")
    check_flag(build)
    telemetry_flags(build)
    build.set_defaults(func=cmd_build)

    chaos = sub.add_parser(
        "chaos", help="run the flow under seeded fault injection and"
                      " report survival statistics")
    chaos.add_argument("model", nargs="?",
                       help="model file; omit with --zoo")
    chaos.add_argument("--weights", help="caffemodel for .prototxt"
                                         " input")
    chaos.add_argument("--zoo", action="store_true",
                       help="chaos-test the built-in TC1/LeNet/CIFAR10"
                            " models (vgg16 needs DSE to fit F1)")
    chaos.add_argument("--seeds", type=int, default=3, metavar="N",
                       help="fault plans per model (seeds 0..N-1,"
                            " default 3)")
    chaos.add_argument("--no-devices", action="store_true",
                       help="skip the device-level fault kinds and the"
                            " post-build fleet exercise")
    chaos.add_argument("--format", choices=["text", "json"],
                       default="text")
    chaos.set_defaults(func=cmd_chaos)

    fleet = sub.add_parser(
        "fleet", help="health-managed execution over F1 FPGA slots:"
                      " watchdogs, scrubbing, quarantine, failover")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    drill = fleet_sub.add_parser(
        "drill", help="seeded survival matrix: device fault kind x"
                      " recovery action x result correctness")
    drill.add_argument("--seeds", type=int, default=2, metavar="N",
                       help="drill every fault kind with seeds 0..N-1"
                            " (default 2)")
    drill.add_argument("--kinds", metavar="K1,K2",
                       help="comma-separated fault kinds (default: all;"
                            " seu-bitflip, kernel-hang, slow-device,"
                            " slot-crash, instance-loss)")
    drill.add_argument("--json-out", metavar="PATH",
                       help="also write the full JSON report here")
    drill.add_argument("--format", choices=["text", "json"],
                       default="text")
    drill.add_argument("--fail-on",
                       choices=["recoverable", "failed", "none"],
                       default="recoverable",
                       help="exit 1 when a recoverable kind does not"
                            " fully recover (default), only on hard"
                            " failures, or never")
    drill.set_defaults(func=cmd_fleet_drill)

    serve = sub.add_parser(
        "serve", help="multi-tenant dynamic-batching inference serving"
                      " on a simulated fleet: seeded synthetic load,"
                      " throughput and p50/p95/p99 on the virtual"
                      " clock")
    serve.add_argument("--model", default="tc1",
                       choices=["tc1", "lenet", "cifar10"],
                       help="zoo model to build and serve"
                            " (default tc1)")
    serve.add_argument("--instances", type=int, default=2,
                       help="initial F1 instances (default 2)")
    serve.add_argument("--instance-type", default="f1.4xlarge",
                       choices=["f1.2xlarge", "f1.4xlarge",
                                "f1.16xlarge"],
                       help="instance type (default f1.4xlarge)")
    serve.add_argument("--rate", type=float, default=2000.0,
                       metavar="RPS",
                       help="offered request rate (default 2000)")
    serve.add_argument("--duration", type=float, default=4.0,
                       metavar="S",
                       help="virtual seconds of load (default 4)")
    serve.add_argument("--seed", type=int, default=0,
                       help="arrival-process seed (default 0)")
    serve.add_argument("--slo-ms", type=float, default=10.0,
                       metavar="MS",
                       help="batching latency budget (default 10ms)")
    serve.add_argument("--buckets", default="1,2,4,8",
                       metavar="B1,B2",
                       help="batch-size ladder flushes snap to"
                            " (default 1,2,4,8)")
    serve.add_argument("--max-queue", type=int, default=512,
                       metavar="N",
                       help="queue depth beyond which requests shed"
                            " (default 512)")
    serve.add_argument("--tenants", default="alpha:3,beta:1",
                       metavar="NAME[:WEIGHT[:QUOTA_RPS]],...",
                       help="tenant mix; weight shapes the synthetic"
                            " load, quota 0/omitted = unlimited"
                            " (default alpha:3,beta:1)")
    serve.add_argument("--autoscale", action="store_true",
                       help="enable the registry-driven autoscaler"
                            " (queue depth + p99)")
    serve.add_argument("--max-instances", type=int, default=4,
                       metavar="N",
                       help="autoscaler instance ceiling (default 4)")
    serve.add_argument("--report", metavar="PATH",
                       help="also write the JSON load report here")
    serve.add_argument("--format", choices=["text", "json"],
                       default="text")
    serve.add_argument("--fail-under-rps", type=float, default=0.0,
                       metavar="RPS",
                       help="exit 1 when sustained throughput falls"
                            " under this floor (default: no floor)")
    telemetry_flags(serve)
    serve.set_defaults(func=cmd_serve)

    profile = sub.add_parser(
        "profile", help="run the flow and print a per-step timing"
                        " profile")
    profile.add_argument("model")
    profile.add_argument("--weights")
    profile.add_argument("--frequency", help="e.g. 180MHz")
    profile.add_argument("--board")
    profile.add_argument("--dse", action="store_true",
                         help="include the design-space explorer")
    check_flag(profile)
    telemetry_flags(profile)
    profile.set_defaults(func=cmd_profile)

    dse = sub.add_parser("dse", help="explore parallelism configurations")
    dse.add_argument("model")
    dse.add_argument("--weights")
    telemetry_flags(dse)
    dse.set_defaults(func=cmd_dse)

    simulate = sub.add_parser("simulate",
                              help="event-driven functional simulation")
    simulate.add_argument("model")
    simulate.add_argument("--weights")
    simulate.add_argument("--batch", type=int, default=4)
    simulate.add_argument("--seed", type=int, default=0)
    check_flag(simulate)
    telemetry_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    bench = sub.add_parser(
        "bench", help="time the batched engine, DSE and simulator hot"
                      " paths on zoo models; diff against a committed"
                      " baseline")
    bench.add_argument("--quick", action="store_true",
                       help="run the small CI suite (TC1/LeNet rows"
                            " and the CIFAR10 engine-steady row)")
    bench.add_argument("--op", action="append", metavar="OP",
                       choices=["engine", "engine-steady", "dse", "sim",
                                "serve", "obs-overhead"],
                       help="run only this operation's rows (repeatable;"
                            " e.g. --op engine-steady); a partial run"
                            " merges into --output instead of replacing"
                            " it")
    bench.add_argument("--output", metavar="PATH",
                       help="write results here (default: write"
                            " nothing; refresh the committed baseline"
                            " with --output BENCH_perf.json)")
    bench.add_argument("--baseline", metavar="PATH",
                       default="BENCH_perf.json",
                       help="baseline to diff against (default:"
                            " BENCH_perf.json; missing file skips the"
                            " comparison)")
    bench.add_argument("--max-regression", type=float, default=0.20,
                       metavar="FRAC",
                       help="fail when cycles grow or speedups decay by"
                            " more than this fraction (default 0.20)")
    bench.add_argument("--format", choices=["text", "json"],
                       default="text")
    telemetry_flags(bench)
    bench.set_defaults(func=cmd_bench)

    obs = sub.add_parser(
        "obs", help="offline analytics over telemetry artifacts"
                    " (telemetry.json / timeseries.jsonl)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_report = obs_sub.add_parser(
        "report", help="per-span-name count / total / p50 / p95 / p99")
    obs_report.add_argument("run",
                            help="telemetry.json or a workdir holding"
                                 " one")
    obs_report.add_argument("--sort", default="total",
                            choices=["total", "count", "p50", "p95",
                                     "p99", "max"])
    obs_report.add_argument("--limit", type=int, metavar="N",
                            help="show only the top N spans")
    obs_report.add_argument("--format", choices=["text", "json"],
                            default="text")
    obs_report.set_defaults(func=cmd_obs_report)

    obs_diff = obs_sub.add_parser(
        "diff", help="flag latency / metric / RSS regressions between"
                     " two runs")
    obs_diff.add_argument("baseline",
                          help="baseline telemetry.json or workdir")
    obs_diff.add_argument("run",
                          help="current telemetry.json or workdir")
    obs_diff.add_argument("--latency-threshold", type=float,
                          default=0.25, metavar="FRAC",
                          help="flag spans whose p95 grew by more than"
                               " this fraction (default 0.25)")
    obs_diff.add_argument("--metric-threshold", type=float,
                          default=0.25, metavar="FRAC",
                          help="flag counters / RSS that grew by more"
                               " than this fraction (default 0.25)")
    obs_diff.add_argument("--fail-on-regress", action="store_true",
                          help="exit 1 when any regression is flagged")
    obs_diff.add_argument("--format", choices=["text", "json"],
                          default="text")
    obs_diff.set_defaults(func=cmd_obs_diff)

    obs_ts = obs_sub.add_parser(
        "timeseries", help="summarize timeseries.jsonl: one metrics"
                           " row per flow step")
    obs_ts.add_argument("run",
                        help="timeseries.jsonl or a workdir holding one")
    obs_ts.add_argument("--limit", type=int, default=20, metavar="N",
                        help="metrics to show, biggest movers first"
                             " (default 20)")
    obs_ts.add_argument("--format", choices=["text", "json"],
                        default="text")
    obs_ts.set_defaults(func=cmd_obs_timeseries)

    figure5 = sub.add_parser("figure5",
                             help="regenerate the Figure 5 series")
    figure5.set_defaults(func=cmd_figure5)

    report = sub.add_parser(
        "report", help="regenerate the full evaluation (Tables 1-2 +"
                       " Figure 5)")
    report.add_argument("--output", help="write to a file instead of"
                                         " stdout")
    report.set_defaults(func=cmd_report)

    convert = sub.add_parser(
        "convert", help="convert a model between Caffe / ONNX / Condor"
                        " JSON formats")
    convert.add_argument("model")
    convert.add_argument("output",
                         help="target path; extension picks the format")
    convert.add_argument("--weights", help="caffemodel for .prototxt"
                                           " input")
    convert.set_defaults(func=cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CondorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
