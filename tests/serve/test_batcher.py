"""DynamicBatcher: bucket snapping and deterministic flush triggers."""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import DEFAULT_BUCKETS, DynamicBatcher
from repro.serve.batcher import ServeRequest


def request(i, arrival_s=0.0):
    return ServeRequest(tenant="t", image=np.zeros(2, np.float32),
                        arrival_s=arrival_s, request_id=i,
                        deadline_s=arrival_s)


class TestLadder:
    def test_default_ladder_is_the_device_batch_sizes(self):
        assert DEFAULT_BUCKETS == (1, 2, 4, 8)

    def test_bucket_for_snaps_up(self):
        batcher = DynamicBatcher()
        assert [batcher.bucket_for(n) for n in range(1, 9)] == \
            [1, 2, 4, 4, 8, 8, 8, 8]

    def test_bucket_for_rejects_oversize(self):
        batcher = DynamicBatcher(buckets=(1, 2))
        with pytest.raises(ServeError, match="no bucket covers"):
            batcher.bucket_for(3)

    def test_ladder_is_sorted_and_deduped(self):
        batcher = DynamicBatcher(buckets=(4, 1, 4, 2))
        assert batcher.buckets == (1, 2, 4)
        assert batcher.max_batch == 4

    def test_invalid_config_rejected(self):
        with pytest.raises(ServeError, match="SLO must be positive"):
            DynamicBatcher(slo_s=0.0)
        with pytest.raises(ServeError, match="invalid bucket ladder"):
            DynamicBatcher(buckets=())
        with pytest.raises(ServeError, match="invalid bucket ladder"):
            DynamicBatcher(buckets=(0, 2))


class TestSizeTrigger:
    def test_full_largest_bucket_flushes_immediately(self):
        batcher = DynamicBatcher(buckets=(1, 2, 4))
        flushes = [batcher.offer(request(i)) for i in range(4)]
        assert flushes[:3] == [None, None, None]
        flush = flushes[3]
        assert flush.trigger == "size"
        assert flush.bucket == 4
        assert flush.padding == 0
        # FIFO order preserved
        assert [r.request_id for r in flush.requests] == [0, 1, 2, 3]
        assert batcher.depth == 0

    def test_offer_stamps_the_slo_deadline(self):
        batcher = DynamicBatcher(slo_s=0.25)
        batcher.offer(request(0, arrival_s=1.0))
        assert batcher.next_deadline() == pytest.approx(1.25)


class TestSloTrigger:
    def test_due_respects_the_oldest_deadline(self):
        batcher = DynamicBatcher(slo_s=0.010)
        batcher.offer(request(0, arrival_s=0.0))
        batcher.offer(request(1, arrival_s=0.004))
        batcher.offer(request(2, arrival_s=0.008))
        assert batcher.due(0.009) is None  # oldest deadline is 0.010
        flush = batcher.due(0.010)
        assert flush is not None
        assert flush.trigger == "slo"
        # three requests snap to bucket 4 with one pad row
        assert flush.bucket == 4
        assert flush.padding == 1
        assert [r.request_id for r in flush.requests] == [0, 1, 2]
        assert batcher.depth == 0
        assert batcher.next_deadline() is None

    def test_empty_batcher_is_never_due(self):
        batcher = DynamicBatcher()
        assert batcher.next_deadline() is None
        assert batcher.due(1e9) is None


class TestDrain:
    def test_drain_flushes_everything_in_fifo_chunks(self):
        batcher = DynamicBatcher(buckets=(1, 2, 4, 8))
        for i in range(5):
            batcher.offer(request(i))
        flushes = batcher.drain()
        assert [f.trigger for f in flushes] == ["drain"]
        assert flushes[0].bucket == 8
        assert flushes[0].padding == 3
        assert [r.request_id for r in flushes[0].requests] == \
            [0, 1, 2, 3, 4]
        assert batcher.depth == 0

    def test_drain_chunks_at_max_batch(self):
        batcher = DynamicBatcher(buckets=(1, 2))
        for i in range(5):
            flush = batcher.offer(request(i))
            if flush is not None:  # size flushes at depth 2
                assert flush.bucket == 2
        flushes = batcher.drain()
        assert [f.bucket for f in flushes] == [1]
        assert batcher.depth == 0
