"""InferenceServer: batching correctness, shedding, the lane model.

The acceptance bar for the serving layer is bit-identity: a request
served out of a coalesced (and possibly padded) batch must produce
exactly the output the same image gets from a per-request run.  The
zoo-wide cases run on the engine-backed :class:`StubFleet`; one case
runs the full path over a real tc1 fleet.
"""

import numpy as np
import pytest

from repro.errors import FleetError, ServeError, ShedError
from repro.obs import REGISTRY
from repro.resilience.clock import VirtualClock
from repro.serve import InferenceServer, ServeConfig, TenantSpec
from tests.serve.conftest import StubFleet, make_fleet

TENANTS = (TenantSpec("alpha"), TenantSpec("beta"))


def make_server(fleet, name, **overrides):
    config = ServeConfig(name=name, **overrides)
    return InferenceServer(fleet, TENANTS, config=config)


def images_for(fleet, rng, n):
    shape = (n,) + fleet.net.input_shape().as_tuple()
    return rng.standard_normal(shape).astype(np.float32)


class TestBatchingCorrectness:
    @pytest.mark.parametrize("model", ["tc1", "lenet", "cifar10"])
    def test_coalesced_outputs_bit_identical_across_zoo(
            self, model, server_name):
        fleet = StubFleet(model)
        server = make_server(fleet, server_name, slo_s=0.010)
        rng = np.random.default_rng(11)
        pool = images_for(fleet, rng, 11)
        requests = []
        # eight back-to-back arrivals fill the largest bucket (size
        # trigger); three stragglers flush at their SLO (padded)
        for i in range(11):
            requests.append(
                server.submit("alpha", pool[i], now=0.001 * i))
        assert server.pump(0.010 + 0.010) == 1
        assert [r.trigger for r in requests] == ["size"] * 8 + \
            ["slo"] * 3
        assert requests[8].bucket == 4  # 3 requests snapped up
        # the padded flush computes its 3 rows on a device batch of 4
        assert fleet.flushes == [(8, 8), (3, 4)]
        for i, request in enumerate(requests):
            single = fleet.golden.forward_batch(pool[i][None]) \
                .reshape(1, -1)[0]
            assert request.ok
            assert np.array_equal(request.output, single)

    def test_padding_rows_never_leak_into_outputs(self, server_name):
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name, buckets=(4,))
        rng = np.random.default_rng(12)
        pool = images_for(fleet, rng, 1)
        request = server.submit("alpha", pool[0], now=0.0)
        server.pump(1.0)  # SLO flush: 1 request padded to bucket 4
        assert request.bucket == 4
        assert fleet.flushes == [(1, 4)]
        single = fleet.golden.forward_batch(pool[0][None]) \
            .reshape(1, -1)[0]
        assert np.array_equal(request.output, single)
        stats = server.stats()
        assert stats["padded_samples"] == 3
        assert stats["completed"] == 1  # pad rows are not requests

    def test_flush_triggers_are_deterministic_on_the_clock(
            self, server_name):
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name, slo_s=0.010,
                             buckets=(1, 2, 4, 8))
        rng = np.random.default_rng(13)
        pool = images_for(fleet, rng, 10)
        reqs = [server.submit("alpha", pool[i], now=0.0)
                for i in range(8)]
        assert all(r.trigger == "size" for r in reqs)  # instant flush
        late = [server.submit("beta", pool[8 + i], now=0.020 + 1e-4 * i)
                for i in range(2)]
        assert server.batcher.next_deadline() == pytest.approx(0.030)
        assert server.pump(0.0299) == 0  # a tick early: nothing due
        assert server.pump(0.030) == 1
        assert [r.trigger for r in late] == ["slo", "slo"]
        assert [r.bucket for r in late] == [2, 2]
        stats = server.stats()
        assert stats["triggers"] == {"size": 1, "slo": 1}
        assert stats["batches"] == {2: 1, 8: 1}


class TestAdmissionPath:
    def test_queue_bound_sheds_typed(self, server_name):
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name, buckets=(8,),
                             max_queue_depth=4)
        rng = np.random.default_rng(14)
        pool = images_for(fleet, rng, 5)
        for i in range(4):
            server.submit("alpha", pool[i], now=0.0)
        with pytest.raises(ShedError) as info:
            server.submit("alpha", pool[4], now=0.0)
        assert info.value.reason == "queue"
        assert server.stats()["shed"] == {"queue": 1}

    def test_unknown_tenant_raises_serve_error(self, server_name):
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name)
        with pytest.raises(ServeError, match="unknown tenant"):
            server.submit("nobody",
                          images_for(fleet,
                                     np.random.default_rng(0), 1)[0])

    def test_oversize_bucket_ladder_rejected(self, server_name):
        fleet = StubFleet("tc1", capacity=4)
        with pytest.raises(ServeError, match="exceeds fleet"):
            make_server(fleet, server_name, buckets=(1, 8))


class TestFailureAndLanes:
    def test_fleet_error_marks_requests_failed_not_raised(
            self, server_name):
        fleet = StubFleet("tc1", fail=FleetError("all slots down"))
        server = make_server(fleet, server_name, buckets=(1,))
        rng = np.random.default_rng(15)
        request = server.submit("alpha",
                                images_for(fleet, rng, 1)[0], now=0.0)
        assert not request.ok
        assert "all slots down" in request.error
        assert server.stats()["failed"] == 1

    def test_single_lane_serializes_completions(self, server_name):
        fleet = StubFleet("tc1", slots=1, device_seconds=1e-4)
        server = make_server(fleet, server_name, buckets=(1,))
        rng = np.random.default_rng(16)
        pool = images_for(fleet, rng, 2)
        first = server.submit("alpha", pool[0], now=0.0)
        second = server.submit("alpha", pool[1], now=0.0)
        assert first.completion_s == pytest.approx(1e-4)
        # the second flush queued behind the first on the only lane
        assert second.completion_s == pytest.approx(2e-4)
        assert second.latency_s == pytest.approx(2e-4)
        assert server.backlog_s(0.0) == pytest.approx(2e-4)
        assert server.backlog_s(1.0) == 0.0

    def test_metrics_land_in_the_registry(self, server_name):
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name, buckets=(1,))
        rng = np.random.default_rng(17)
        server.submit("alpha", images_for(fleet, rng, 1)[0], now=0.0)
        latency = REGISTRY.summary(
            "condor_serve_latency_seconds",
            "End-to-end request latency on the virtual timeline,"
            " per server")
        assert latency.quantile(0.99, server=server_name) is not None
        depth = REGISTRY.gauge(
            "condor_serve_queue_depth_count",
            "Requests waiting in the batcher, per server")
        assert depth.value(server=server_name) == 0.0

    def test_queue_depth_gauge_reads_the_live_depth(self, server_name):
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name, buckets=(4,))
        depth = REGISTRY.gauge(
            "condor_serve_queue_depth_count",
            "Requests waiting in the batcher, per server")
        pool = images_for(fleet, np.random.default_rng(18), 5)
        assert depth.value(server=server_name) == 0.0
        for i in range(3):  # below the bucket: nothing flushes
            server.submit("alpha", pool[i], now=0.0)
            assert depth.value(server=server_name) == i + 1
        server.submit("alpha", pool[3], now=0.0)  # fills the bucket
        assert depth.value(server=server_name) == 0.0
        server.submit("alpha", pool[4], now=0.0)
        assert depth.value(server=server_name) == 1.0
        assert server.drain(0.0) == 1
        assert depth.value(server=server_name) == 0.0

    def test_non_flushing_submit_makes_no_registry_update(
            self, server_name, monkeypatch):
        # nor does a flushing one: the registry reads the server's
        # ledger at collect time, and the kill switch is never read
        from repro.obs import metrics

        updates = []

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                updates.append((self.name, name))
                return original(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        for cls, name in [(metrics.Counter, "inc"),
                          (metrics.Gauge, "set_function"),
                          (metrics.Summary, "observe")]:
            counting(cls, name)
        switch_reads = []
        obs_disabled = metrics.obs_disabled

        def counting_switch():
            switch_reads.append(1)
            return obs_disabled()
        monkeypatch.setattr(metrics, "obs_disabled", counting_switch)
        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name, buckets=(8,))
        pool = images_for(fleet, np.random.default_rng(19), 8)
        fleet.golden.forward_batch(pool)  # plan compiles are not serving
        fleet.flushes.clear()
        updates.clear()  # construction registers its gauges
        switch_reads.clear()
        for i in range(7):
            server.submit("alpha", pool[i], now=0.0)
        assert updates == []
        server.submit("alpha", pool[7], now=0.0)  # flushes
        assert fleet.flushes == [(8, 8)]
        assert updates == []
        assert switch_reads == []
        requests_total = REGISTRY.get("condor_serve_requests_total")
        assert requests_total.value(tenant="alpha", status="ok") >= 8
        latency = REGISTRY.get("condor_serve_latency_seconds")
        assert latency.count(server=server_name) == 8

    def test_request_counters_per_tenant_per_flush(self, server_name):
        # a mixed-tenant flush counts each tenant's ok requests; shed
        # and failed requests are still counted one per request
        requests_total = REGISTRY.counter(
            "condor_serve_requests_total",
            "Requests finished, by tenant and status (ok|failed)")
        shed_total = REGISTRY.counter(
            "condor_serve_shed_total",
            "Requests refused by admission control, by tenant and reason")

        def counts():
            return {(tenant, status): requests_total.value(
                        tenant=tenant, status=status)
                    for tenant in ("alpha", "beta")
                    for status in ("ok", "failed")}

        fleet = StubFleet("tc1")
        server = make_server(fleet, server_name, buckets=(8,),
                             max_queue_depth=8)
        pool = images_for(fleet, np.random.default_rng(19), 8)
        before = counts()
        tenants = ["alpha", "beta", "alpha", "alpha", "beta", "alpha",
                   "beta", "alpha"]
        for i, tenant in enumerate(tenants):
            server.submit(tenant, pool[i], now=0.0)
        assert fleet.flushes == [(8, 8)]  # one mixed-tenant flush
        after = counts()
        assert after[("alpha", "ok")] - before[("alpha", "ok")] == 5
        assert after[("beta", "ok")] - before[("beta", "ok")] == 3

        # a second server with a tight queue bound: two beta requests
        # are shed, then the two queued alpha requests fail together
        server = make_server(fleet, f"{server_name}-tight", buckets=(8,),
                             max_queue_depth=2)
        shed_before = shed_total.value(tenant="beta", reason="queue")
        for i in range(2):
            server.submit("alpha", pool[i], now=1.0)
        for i in range(2):
            with pytest.raises(ShedError):
                server.submit("beta", pool[2 + i], now=1.0)
        assert shed_total.value(tenant="beta", reason="queue") - \
            shed_before == 2
        fleet.fail = FleetError("all slots down")
        before = counts()
        server.drain(2.0)
        expected = dict(before)
        expected[("alpha", "failed")] += 2
        assert counts() == expected


class TestRealFleetServing:
    def test_coalesced_equals_per_request_on_the_fleet(
            self, image, weights, server_name):
        fleet = make_fleet(image, weights, clock=VirtualClock())
        server = make_server(fleet, server_name, slo_s=0.010)
        rng = np.random.default_rng(18)
        pool = images_for(fleet, rng, 11)
        requests = [server.submit("alpha", pool[i], now=0.001 * i)
                    for i in range(11)]
        server.pump(1.0)
        assert all(r.ok for r in requests)
        for i, request in enumerate(requests):
            assert np.array_equal(request.output,
                                  fleet.run(pool[i][None])[0])
        stats = server.stats()
        assert stats["completed"] == 11
        assert stats["batches"] == {4: 1, 8: 1}
        assert stats["triggers"] == {"size": 1, "slo": 1}

    def test_padded_flush_computes_only_its_requests(
            self, image, weights, server_name, monkeypatch):
        # three requests SLO-flush on bucket 4: the device batch is
        # modeled and charged at 4, but only the 3 real rows are built
        # and computed
        from repro.nn.engine import ReferenceEngine

        fleet = make_fleet(image, weights, clock=VirtualClock())
        server = make_server(fleet, server_name, slo_s=0.010)
        rng = np.random.default_rng(21)
        pool = images_for(fleet, rng, 3)
        oracle = ReferenceEngine(fleet.net, weights, use_plans=False)
        expected = oracle.forward_batch(pool).reshape(3, -1)
        computed, receipts = [], []
        run_batch = ReferenceEngine.run_batch

        def counting(engine, batch):
            computed.append(len(batch))
            return run_batch(engine, batch)
        monkeypatch.setattr(ReferenceEngine, "run_batch", counting)
        submit = fleet.submit

        def recording(images, **kwargs):
            receipt = submit(images, **kwargs)
            receipts.append((len(images), kwargs["bucket"], receipt))
            return receipt
        monkeypatch.setattr(fleet, "submit", recording)

        requests = [server.submit("alpha", pool[i], now=0.0)
                    for i in range(3)]
        assert server.pump(0.010) == 1
        assert computed == [3]
        ((rows, bucket, receipt),) = receipts
        assert (rows, bucket) == (3, 4)
        perf = fleet.slots[0].kernel.program.performance
        cycles = perf.batch_cycles(4) + perf.config_cycles
        assert receipt.device_seconds == cycles / perf.frequency_hz
        assert receipt.outputs.shape == (3, fleet.net.output_shape().size)
        assert [r.bucket for r in requests] == [4, 4, 4]
        assert server.stats()["padded_samples"] == 1
        for i, request in enumerate(requests):
            assert np.array_equal(request.output, expected[i])
            assert request.completion_s == \
                pytest.approx(0.010 + receipt.device_seconds)
