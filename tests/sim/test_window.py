"""Sliding-window chain model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.hw.partitioning import partition_window_accesses
from repro.nn.functional import sliding_windows
from repro.sim.window import SlidingWindowBuffer


def collect_windows(x: np.ndarray, window: tuple[int, int]) -> np.ndarray:
    """Push a (H, W) map through the buffer, return stacked windows."""
    h, w = x.shape
    spec = partition_window_accesses(window, w)
    swb = SlidingWindowBuffer(spec, h)
    windows = []
    for value in x.reshape(-1):
        out = swb.push(value)
        if out is not None:
            windows.append(out)
    return np.array(windows)


class TestWindows:
    def test_3x3_matches_stride_tricks(self):
        x = np.arange(64, dtype=np.float32).reshape(8, 8)
        got = collect_windows(x, (3, 3))
        want = sliding_windows(x[None, None], (3, 3), (1, 1))[0, 0] \
            .reshape(-1, 3, 3)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_window_count(self):
        x = np.zeros((6, 7), dtype=np.float32)
        assert len(collect_windows(x, (2, 3))) == 5 * 5

    def test_1x1_window_every_element(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        got = collect_windows(x, (1, 1))
        np.testing.assert_array_equal(got.reshape(-1), x.reshape(-1))

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(3, 10), w=st.integers(3, 10),
           kh=st.integers(1, 3), kw=st.integers(1, 3),
           seed=st.integers(0, 2**31))
    def test_matches_stride_tricks_property(self, h, w, kh, kw, seed):
        if kh > h or kw > w:
            return
        x = np.random.default_rng(seed).normal(size=(h, w)) \
            .astype(np.float32)
        got = collect_windows(x, (kh, kw))
        want = sliding_windows(x[None, None], (kh, kw), (1, 1))[0, 0] \
            .reshape(-1, kh, kw)
        np.testing.assert_array_equal(got, want)


class TestBufferBound:
    def test_capacity_is_partitioning_bound(self):
        spec = partition_window_accesses((5, 5), 28)
        swb = SlidingWindowBuffer(spec, 28)
        # span + the in-flight element
        assert swb.capacity_words == 4 * 28 + 4 + 1

    def test_never_exceeds_bound(self):
        spec = partition_window_accesses((3, 3), 16)
        swb = SlidingWindowBuffer(spec, 16)
        for value in range(16 * 16):
            swb.push(float(value))
            assert len(swb._buffer) <= swb.capacity_words

    def test_overrun_rejected(self):
        spec = partition_window_accesses((2, 2), 4)
        swb = SlidingWindowBuffer(spec, 4)
        for value in range(16):
            swb.push(float(value))
        with pytest.raises(SimulationError, match="reset"):
            swb.push(0.0)

    def test_reset_allows_next_map(self):
        spec = partition_window_accesses((2, 2), 4)
        swb = SlidingWindowBuffer(spec, 4)
        for value in range(16):
            swb.push(float(value))
        swb.reset()
        assert swb.push(1.0) is None  # first element never completes

    def test_too_short_input_rejected(self):
        spec = partition_window_accesses((4, 4), 8)
        with pytest.raises(SimulationError):
            SlidingWindowBuffer(spec, 3)
