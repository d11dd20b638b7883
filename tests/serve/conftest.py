"""Shared serving fixtures: a real tc1 fleet image and an engine-backed
stub fleet for zoo-wide batching-correctness tests without AFI builds."""

import itertools

import numpy as np
import pytest

from repro.cloud.f1 import F1Instance
from repro.fleet import (
    FleetConfig,
    FleetManager,
    Submission,
    build_fleet_image,
    servable_model,
)
from repro.frontend.condor_format import model_from_json
from repro.frontend.weights import WeightStore
from repro.nn.engine import ReferenceEngine
from repro.resilience.clock import VirtualClock
from repro.toolchain.xclbin import read_xclbin

_server_names = itertools.count(0)


@pytest.fixture(scope="module")
def image():
    return build_fleet_image(servable_model("tc1"), name="test-serve-tc1")


@pytest.fixture(scope="module")
def weights(image):
    _, _, xclbin_bytes = image
    net = model_from_json(read_xclbin(xclbin_bytes).network_json).network
    return WeightStore.initialize(net, seed=0)


@pytest.fixture
def server_name():
    """A unique metrics label per test so registry reads don't bleed."""
    return f"test-serve-{next(_server_names)}"


def make_fleet(image, weights, *, clock, count=1,
               instance_type="f1.4xlarge", config=None):
    service, agfi_id, _ = image
    instances = [F1Instance(instance_type, service)
                 for _ in range(count)]
    fleet_config = config if config is not None \
        else FleetConfig(scrub_every=0)
    return FleetManager(instances, agfi_id, weights,
                        config=fleet_config, clock=clock)


class _StubConfig:
    def __init__(self, capacity):
        self.capacity = capacity


class StubFleet:
    """A fleet-shaped facade over the reference engine.

    Gives the server everything it touches (``net``, ``clock``,
    ``slots``, ``config.capacity``, ``instances``, ``submit``,
    ``stats``) while every submission runs on the batched reference
    engine — so batching-correctness tests cover the whole zoo without
    paying an AFI build per model.
    """

    def __init__(self, model_name, *, clock=None, slots=2, capacity=8,
                 seed=0, device_seconds=1e-4, fail=None):
        model = servable_model(model_name)
        self.net = model.network
        weights = WeightStore.initialize(self.net, seed=seed)
        self.golden = ReferenceEngine(self.net, weights)
        self.clock = clock if clock is not None else VirtualClock()
        self.config = _StubConfig(capacity)
        self.slots = list(range(slots))
        self.instances = ["stub-instance"]
        self.device_seconds = device_seconds
        #: Optional exception raised instead of executing.
        self.fail = fail
        #: ``(rows computed, device batch)`` per submission
        self.flushes: list[tuple[int, int]] = []

    def submit(self, images, *, bucket=None, verify=False):
        if self.fail is not None:
            raise self.fail
        batch = np.asarray(images, dtype=np.float32)
        rows = batch.shape[0]
        bucket = rows if bucket is None else bucket
        self.flushes.append((rows, bucket))
        outputs = self.golden.forward_batch(batch).reshape(rows, -1)
        return Submission(outputs=outputs,
                          device_seconds=self.device_seconds * bucket,
                          slot="stub.slot0", attempts=1)

    def stats(self):
        return {"instances": len(self.instances),
                "healthy_slots": len(self.slots)}
