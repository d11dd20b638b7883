"""The seeded load generator: determinism, the ROADMAP demo numbers,
quota shedding and autoscaler integration — all on the virtual clock."""

import json

import pytest

from repro.cloud.f1 import F1Instance
from repro.resilience.clock import VirtualClock
from repro.serve import (
    Autoscaler,
    AutoscalerConfig,
    InferenceServer,
    LoadSpec,
    ServeConfig,
    TenantSpec,
    build_serving_fleet,
    run_load,
)


def serve_tc1(name, spec, *, instances=2,
              instance_type="f1.4xlarge", config=None,
              autoscale=None):
    clock = VirtualClock()
    fleet, service = build_serving_fleet(
        "tc1", instances=instances, instance_type=instance_type,
        clock=clock)
    server = InferenceServer(
        fleet, spec.tenants,
        config=config if config is not None else ServeConfig(name=name))
    scaler = None
    if autoscale is not None:
        scaler = Autoscaler(
            server, lambda: F1Instance(instance_type, service),
            config=autoscale)
    return run_load(server, spec, autoscaler=scaler)


class TestDeterminism:
    def test_same_seed_same_report(self, server_name):
        spec = LoadSpec(rate_rps=2000.0, duration_s=0.5, seed=7)
        first = serve_tc1(server_name, spec)
        second = serve_tc1(server_name, spec)
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    def test_different_seeds_differ(self, server_name):
        spec_a = LoadSpec(rate_rps=2000.0, duration_s=0.5, seed=7)
        spec_b = LoadSpec(rate_rps=2000.0, duration_s=0.5, seed=8)
        first = serve_tc1(server_name + "-a", spec_a)
        second = serve_tc1(server_name + "-b", spec_b)
        assert first.offered != second.offered or \
            first.latency != second.latency


class TestDemoNumbers:
    def test_thousand_rps_with_tail_latency(self, server_name):
        """The ROADMAP demo: >= 1000 synthetic req/s with p50/p99."""
        spec = LoadSpec(rate_rps=2000.0, duration_s=1.0, seed=0)
        report = serve_tc1(server_name, spec)
        assert report.completed == report.offered
        assert report.failed == 0
        assert report.shed == {}
        assert report.throughput_rps >= 1000.0
        assert report.latency["count"] == report.completed
        assert 0.0 < report.latency["p50_s"] <= report.latency["p99_s"]
        assert report.latency["p99_s"] <= report.latency["max_s"]
        # coalescing happened: some batches bigger than one request
        assert any(size > 1 for size in report.batches)
        assert report.model == "tc1"
        # both demo tenants saw traffic at the 3:1 configured mix
        assert report.tenants["alpha"]["offered"] > \
            report.tenants["beta"]["offered"]

    def test_requests_kept_only_on_demand(self, server_name):
        spec = LoadSpec(rate_rps=1000.0, duration_s=0.2, seed=1)
        clock = VirtualClock()
        fleet, _ = build_serving_fleet("tc1", clock=clock)
        server = InferenceServer(
            fleet, spec.tenants, config=ServeConfig(name=server_name))
        report = run_load(server, spec, keep_requests=True)
        assert len(report.requests) == report.offered
        assert all(r.ok for r in report.requests)
        assert "requests" not in report.to_dict()


class TestShedding:
    def test_tight_quota_sheds_with_reason(self, server_name):
        tenants = (TenantSpec("alpha", quota_rps=100.0, burst=4,
                              weight=1.0),)
        spec = LoadSpec(rate_rps=2000.0, duration_s=0.5, seed=2,
                        tenants=tenants)
        report = serve_tc1(server_name, spec)
        assert report.shed.get("quota", 0) > 0
        assert report.tenants["alpha"]["shed"] == \
            sum(report.shed.values())
        # roughly quota * duration + burst requests got through
        assert report.completed < report.offered
        assert report.completed <= 100.0 * spec.duration_s + 4 + 8


class TestAutoscaleIntegration:
    def test_saturation_scales_the_fleet_up(self, server_name):
        # one single-slot instance serves tc1 at ~39k images/s; an
        # offered 100k req/s saturates it and p99 blows the watermark
        autoscale = AutoscalerConfig(interval_s=0.01, cooldown_s=0.02,
                                     depth_high=512, p99_high_s=0.020,
                                     idle_evals=4, max_instances=4)
        spec = LoadSpec(rate_rps=100000.0, duration_s=0.05, seed=3)
        report = serve_tc1(server_name, spec, instances=1,
                           instance_type="f1.2xlarge",
                           autoscale=autoscale)
        ups = [e for e in report.autoscale if e["direction"] == "up"]
        assert ups, report.autoscale
        assert report.fleet["instances"] > 1
        assert report.completed == report.offered

    def test_report_records_autoscale_timeline(self, server_name):
        autoscale = AutoscalerConfig(interval_s=0.01, cooldown_s=0.02,
                                     depth_high=512, p99_high_s=0.020,
                                     idle_evals=4, max_instances=2)
        spec = LoadSpec(rate_rps=100000.0, duration_s=0.03, seed=4)
        report = serve_tc1(server_name, spec, instances=1,
                           instance_type="f1.2xlarge",
                           autoscale=autoscale)
        for event in report.autoscale:
            assert set(event) == {"t", "direction", "detail"}
            assert event["direction"] in ("up", "down")
            assert event["t"] == pytest.approx(event["t"])
