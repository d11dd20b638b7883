"""FleetManager tests: health machine, watchdog, scrub, failover."""

import numpy as np
import pytest

from repro.cloud.f1 import F1Instance
from repro.errors import FleetError
from repro.fleet import FleetConfig, FleetManager, SlotState
from repro.fleet.drill import build_drill_image
from repro.frontend.condor_format import model_from_json
from repro.frontend.weights import WeightStore
from repro.resilience.boundary import inject_faults
from repro.resilience.breaker import HALF_OPEN, OPEN
from repro.resilience.clock import VirtualClock
from repro.resilience.faults import (
    DEVICE_PATTERN,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.toolchain.xclbin import read_xclbin


@pytest.fixture(scope="module")
def image():
    return build_drill_image()  # (service, agfi_id, xclbin_bytes)


@pytest.fixture(scope="module")
def weights(image):
    _, _, xclbin_bytes = image
    net = model_from_json(read_xclbin(xclbin_bytes).network_json).network
    return WeightStore.initialize(net, seed=0)


def make_fleet(image, weights, *, clock, count=1, config=None):
    service, agfi_id, _ = image
    instances = [F1Instance("f1.4xlarge", service) for _ in range(count)]
    return FleetManager(instances, agfi_id, weights,
                        config=config, clock=clock)


def batch_for(fleet, rng, n=2):
    shape = (n,) + fleet.net.input_shape().as_tuple()
    return rng.standard_normal(shape).astype(np.float32)


def golden_for(fleet, images):
    return fleet.golden.forward_batch(images) \
        .reshape(images.shape[0], -1)


class TestHealthyFleet:
    def test_bit_correct_and_round_robin(self, image, weights):
        fleet = make_fleet(image, weights, clock=VirtualClock())
        rng = np.random.default_rng(1)
        for _ in range(4):
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            assert np.array_equal(outputs, golden_for(fleet, images))
        # round-robin spread the four submissions over both slots
        assert [s.submissions for s in fleet.slots] == [2, 2]
        assert fleet.health() == {"i0.slot0": SlotState.OK,
                                  "i0.slot1": SlotState.OK}
        stats = fleet.stats()
        assert stats["actions"] == {"submission": 4}
        assert stats["healthy_slots"] == 2
        assert stats["quarantined"] == []

    def test_same_labelled_fleets_keep_independent_breakers(
            self, image, weights):
        clock_a, clock_b = VirtualClock(), VirtualClock()
        config = FleetConfig(scrub_every=0, failure_threshold=2)
        fleet_a = make_fleet(image, weights, clock=clock_a,
                             config=config)
        fleet_b = make_fleet(image, weights, clock=clock_b,
                             config=config)
        slot_a, slot_b = fleet_a.slots[0], fleet_b.slots[0]
        assert slot_a.label == slot_b.label == "i0.slot0"
        assert slot_a.breaker is not slot_b.breaker
        assert slot_a.breaker.clock is clock_a
        assert slot_b.breaker.clock is clock_b
        # two failures quarantine the slot in fleet A only
        slot_a.breaker.record_failure()
        slot_a.breaker.record_failure()
        assert fleet_a.health()["i0.slot0"] is SlotState.QUARANTINED
        assert fleet_b.health()["i0.slot0"] is SlotState.OK
        assert fleet_b.stats()["healthy_slots"] == 2

    def test_batch_over_capacity_rejected(self, image, weights):
        config = FleetConfig(capacity=2)
        fleet = make_fleet(image, weights, clock=VirtualClock(),
                           config=config)
        rng = np.random.default_rng(2)
        with pytest.raises(FleetError, match="capacity"):
            fleet.run(batch_for(fleet, rng, n=3))

    def test_bucket_models_the_device_batch(self, image, weights):
        # real rows computed, the bucket charged: the same receipt time
        # and real-row outputs as a batch padded to the bucket
        fleet = make_fleet(image, weights, clock=VirtualClock(),
                           config=FleetConfig(scrub_every=1))
        images = batch_for(fleet, np.random.default_rng(3), n=3)
        padded = np.concatenate([images, images[-1:]])
        bucketed = fleet.submit(images, bucket=4)
        full = fleet.submit(padded)
        assert bucketed.outputs.shape[0] == 3
        assert bucketed.device_seconds == full.device_seconds
        assert np.array_equal(bucketed.outputs, full.outputs[:3])
        assert np.array_equal(bucketed.outputs, golden_for(fleet, images))
        # every submission was scrubbed against the golden real rows
        assert fleet.stats()["actions"] == {"submission": 2}

    def test_bucket_must_cover_the_images_and_fit(self, image, weights):
        fleet = make_fleet(image, weights, clock=VirtualClock(),
                           config=FleetConfig(capacity=4))
        images = batch_for(fleet, np.random.default_rng(4), n=3)
        with pytest.raises(FleetError, match="do not fit"):
            fleet.submit(images, bucket=2)
        with pytest.raises(FleetError, match="capacity"):
            fleet.submit(images, bucket=8)

    def test_empty_fleet_rejected(self, image, weights):
        _, agfi_id, _ = image
        with pytest.raises(FleetError, match="at least one instance"):
            FleetManager([], agfi_id, weights)


class TestFaultHandling:
    def test_watchdog_trips_hang_and_fails_over(self, image, weights):
        clock = VirtualClock()
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN,
                                    FaultKind.KERNEL_HANG,
                                    delay_s=600.0)], seed=3)
        rng = np.random.default_rng(3)
        with inject_faults(plan):
            fleet = make_fleet(image, weights, clock=clock)
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            stats = fleet.stats()
        assert np.array_equal(outputs, golden_for(fleet, images))
        assert plan.total_injected == 1
        assert stats["actions"]["watchdog_trip"] == 1
        assert stats["actions"]["failover"] == 1
        # the hang was the invocation's device time, not shared time
        assert clock.now == 0.0

    def test_slowdown_lands_in_device_seconds(self, image, weights):
        clock = VirtualClock()
        config = FleetConfig(scrub_every=0, watchdog_s=60.0)
        rng = np.random.default_rng(5)
        fleet = make_fleet(image, weights, clock=clock, config=config)
        images = batch_for(fleet, rng)
        clean = fleet.submit(images).device_seconds
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN,
                                    FaultKind.SLOW_DEVICE,
                                    delay_s=45.0)], seed=5)
        with inject_faults(plan):
            slow = fleet.submit(images)
        assert plan.total_injected == 1
        assert slow.attempts == 1  # under the deadline: no trip
        assert slow.device_seconds == pytest.approx(clean + 45.0)
        assert clock.now == 0.0
        assert "watchdog_trip" not in fleet.stats()["actions"]

    def test_scrub_catches_silent_bitflip(self, image, weights):
        clock = VirtualClock()
        config = FleetConfig(scrub_every=1, capacity=4)
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN, FaultKind.BITFLIP)],
                         seed=4)
        rng = np.random.default_rng(4)
        with inject_faults(plan):
            fleet = make_fleet(image, weights, clock=clock,
                               config=config)
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            stats = fleet.stats()
        # the corruption was silent; scrubbing caught it, repaired the
        # slot, and the retried submission is still bit-correct
        assert np.array_equal(outputs, golden_for(fleet, images))
        assert plan.total_injected == 1
        assert stats["actions"]["scrub_catch"] >= 1
        assert stats["actions"]["reload"] >= 1
        assert stats["actions"]["failover"] >= 1

    def test_crash_quarantine_then_recovery(self, image, weights):
        clock = VirtualClock()
        config = FleetConfig(scrub_every=0, failure_threshold=1,
                             recovery_s=100.0)
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN,
                                    FaultKind.SLOT_CRASH)], seed=5)
        rng = np.random.default_rng(5)
        with inject_faults(plan):
            fleet = make_fleet(image, weights, clock=clock,
                               config=config)
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            assert np.array_equal(outputs, golden_for(fleet, images))
            assert fleet.health()["i0.slot0"] is SlotState.QUARANTINED
            assert fleet.healthy_slot_count() == 1

            clock.sleep(config.recovery_s + 1)
            images = batch_for(fleet, rng)
            outputs = fleet.run(images)
            assert np.array_equal(outputs, golden_for(fleet, images))
            stats = fleet.stats()
        assert fleet.health() == {"i0.slot0": SlotState.OK,
                                  "i0.slot1": SlotState.OK}
        assert stats["actions"]["quarantine"] == 1
        assert stats["actions"]["recovery"] == 1
        assert stats["actions"]["reload"] >= 1
        assert stats["quarantined"] == []
        assert stats["slots"]["i0.slot0"]["reloads"] >= 1

    def test_total_loss_degrades_to_fleet_error(self, image, weights):
        clock = VirtualClock()
        config = FleetConfig(failure_threshold=1, max_attempts=4)
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN,
                                    FaultKind.PERMANENT)], seed=6)
        rng = np.random.default_rng(6)
        with inject_faults(plan):
            fleet = make_fleet(image, weights, clock=clock,
                               config=config)
            images = batch_for(fleet, rng)
            with pytest.raises(FleetError, match="healthy slot"):
                fleet.run(images)
            assert fleet.healthy_slot_count() == 0
            assert sorted(fleet.stats()["quarantined"]) == \
                ["i0.slot0", "i0.slot1"]


class TestHealthyGauge:
    def test_gauge_tracks_every_health_step(self, image, weights):
        import gc

        from repro.obs import REGISTRY

        # the gauge sums every live fleet: count from what is left
        gc.collect()
        gauge = REGISTRY.gauge("condor_fleet_healthy_slots_count")
        base = gauge.value()
        clock = VirtualClock()
        config = FleetConfig(scrub_every=0, failure_threshold=1,
                             recovery_s=100.0)
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN,
                                    FaultKind.SLOT_CRASH)], seed=5)
        rng = np.random.default_rng(5)
        seen = []

        def step(fleet):
            assert gauge.value() == base + fleet.healthy_slot_count()
            seen.append(gauge.value() - base)

        with inject_faults(plan):
            fleet = make_fleet(image, weights, clock=clock,
                               config=config)
            step(fleet)
            fleet.run(batch_for(fleet, rng))  # slot0 crashes
            step(fleet)
            clock.sleep(config.recovery_s + 1)  # half-open counts
            step(fleet)
            fleet.run(batch_for(fleet, rng))  # recovery probe
            step(fleet)
        service, _, _ = image
        fleet.add_instance(F1Instance("f1.4xlarge", service))
        step(fleet)
        fleet.drain_instance()
        step(fleet)
        assert seen == [2, 1, 2, 2, 4, 2]

    def test_gauge_holds_the_fleet_weakly(self, image, weights):
        import gc
        import weakref

        from repro.obs import REGISTRY

        gc.collect()
        gauge = REGISTRY.gauge("condor_fleet_healthy_slots_count")
        base = gauge.value()
        fleet = make_fleet(image, weights, clock=VirtualClock())
        assert gauge.value() == base + 2
        ref = weakref.ref(fleet)
        del fleet
        gc.collect()
        assert ref() is None
        assert gauge.value() == base


class TestLifetime:
    def test_a_fleet_that_failed_over_is_freed_on_del(self, image,
                                                      weights):
        import gc
        import weakref

        config = FleetConfig(scrub_every=0, failure_threshold=1)
        plan = FaultPlan([FaultSpec(DEVICE_PATTERN,
                                    FaultKind.SLOT_CRASH)], seed=5)
        rng = np.random.default_rng(5)
        gc.collect()
        gc.disable()
        try:
            with inject_faults(plan):
                fleet = make_fleet(image, weights, clock=VirtualClock(),
                                   config=config)
                receipt = fleet.submit(batch_for(fleet, rng))
            assert receipt.attempts == 2  # slot0 crashed, slot1 served
            ref = weakref.ref(fleet)
            del fleet, receipt
            assert ref() is None
        finally:
            gc.enable()


class TestHealthStateMachine:
    def test_ok_suspect_quarantined_halfopen(self, image, weights):
        clock = VirtualClock()
        config = FleetConfig(failure_threshold=2, recovery_s=50.0)
        fleet = make_fleet(image, weights, clock=clock, config=config)
        managed = fleet.slots[0]
        assert managed.health is SlotState.OK
        managed.breaker.record_failure()
        assert managed.health is SlotState.SUSPECT
        managed.breaker.record_failure()
        assert managed.breaker.state == OPEN
        assert managed.health is SlotState.QUARANTINED
        clock.sleep(51.0)
        assert managed.breaker.state == HALF_OPEN
        assert managed.health is SlotState.SUSPECT  # probing
        managed.breaker.allow()
        managed.breaker.record_success()
        assert managed.health is SlotState.OK
