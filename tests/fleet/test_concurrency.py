"""Concurrent-submitter hardening for the fleet (seeded stress).

Many threads hammer ``FleetManager.submit(wait=True)`` on a small
fleet: every submission must complete bit-correct, every counter must
balance, and no slot may leak its ``busy`` token.  The whole suite is
CI-gated under ``REPRO_TSAN=1``, where the root conftest fails any test
that produces runtime sanitizer findings — so a double acquire, a lock
inversion or an unguarded-state race in the acquire/release path is a
test failure here, not a latent production bug.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import FleetError
from repro.fleet import FleetConfig, FleetManager
from repro.fleet.drill import build_drill_image
from repro.cloud.f1 import F1Instance
from repro.frontend.condor_format import model_from_json
from repro.frontend.weights import WeightStore
from repro.resilience.clock import VirtualClock
from repro.toolchain.xclbin import read_xclbin

THREADS = 12
PER_THREAD = 8


@pytest.fixture(scope="module")
def image():
    return build_drill_image()


@pytest.fixture(scope="module")
def weights(image):
    _, _, xclbin_bytes = image
    net = model_from_json(read_xclbin(xclbin_bytes).network_json).network
    return WeightStore.initialize(net, seed=0)


def make_fleet(image, weights, *, count=1, config=None):
    service, agfi_id, _ = image
    instances = [F1Instance("f1.4xlarge", service)
                 for _ in range(count)]
    fleet_config = config if config is not None \
        else FleetConfig(scrub_every=0)
    return FleetManager(instances, agfi_id, weights,
                        config=fleet_config, clock=VirtualClock())


class TestConcurrentSubmitters:
    def test_stress_bit_correct_and_balanced(self, image, weights):
        fleet = make_fleet(image, weights, count=1)  # 2 slots only
        shape = fleet.net.input_shape().as_tuple()
        rng = np.random.default_rng(42)
        batches = [
            [rng.standard_normal((2,) + shape).astype(np.float32)
             for _ in range(PER_THREAD)]
            for _ in range(THREADS)]
        goldens = [[fleet.golden.forward_batch(b).reshape(2, -1)
                    for b in thread_batches]
                   for thread_batches in batches]

        def worker(thread_batches):
            return [fleet.submit(b, wait=True)
                    for b in thread_batches]

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            receipts = list(pool.map(worker, batches))

        for thread_receipts, thread_goldens in zip(receipts, goldens):
            for receipt, golden in zip(thread_receipts, thread_goldens):
                assert np.array_equal(receipt.outputs, golden)
                assert receipt.attempts == 1
        total = THREADS * PER_THREAD
        assert sum(s.submissions for s in fleet.slots) == total
        assert fleet.stats()["actions"] == {"submission": total}
        assert not any(s.busy for s in fleet.slots)

    def test_all_busy_without_wait_fails_fast(self, image, weights):
        fleet = make_fleet(image, weights, count=1)
        rng = np.random.default_rng(43)
        images = rng.standard_normal(
            (1,) + fleet.net.input_shape().as_tuple()) \
            .astype(np.float32)
        for slot in fleet.slots:
            slot.busy = True  # every slot claimed by someone else
        with pytest.raises(FleetError, match="healthy slot"):
            fleet.submit(images, wait=False)
        for slot in fleet.slots:
            slot.busy = False
        assert fleet.submit(images, wait=False).attempts == 1

    def test_waiters_survive_elastic_resizing(self, image, weights):
        """submit(wait=True) racing add_instance/drain_instance."""
        fleet = make_fleet(image, weights, count=2)
        service, _, _ = image
        shape = fleet.net.input_shape().as_tuple()
        rng = np.random.default_rng(44)
        batches = [
            [rng.standard_normal((2,) + shape).astype(np.float32)
             for _ in range(PER_THREAD)]
            for _ in range(THREADS)]
        goldens = [[fleet.golden.forward_batch(b).reshape(2, -1)
                    for b in thread_batches]
                   for thread_batches in batches]
        stop = threading.Event()

        def resizer():
            while not stop.is_set():
                labels = fleet.add_instance(
                    F1Instance("f1.4xlarge", service))
                assert labels
                fleet.drain_instance()

        def worker(thread_batches):
            return [fleet.submit(b, wait=True)
                    for b in thread_batches]

        resize_thread = threading.Thread(target=resizer)
        resize_thread.start()
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                receipts = list(pool.map(worker, batches))
        finally:
            stop.set()
            resize_thread.join()

        for thread_receipts, thread_goldens in zip(receipts, goldens):
            for receipt, golden in zip(thread_receipts, thread_goldens):
                assert np.array_equal(receipt.outputs, golden)
        total = THREADS * PER_THREAD
        assert fleet.stats()["actions"]["submission"] == total
        assert not any(s.busy for s in fleet.slots)
        # drained slots all reaped once their submissions released
        assert len(fleet.slots) == 2 * len(fleet.instances)
