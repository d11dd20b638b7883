"""VirtualClock: bounded sleep history, exact running totals."""

import pytest

from repro.resilience.clock import SLEEP_WINDOW, VirtualClock


def test_sleep_history_stays_bounded_and_totals_stay_exact():
    clock = VirtualClock()
    intervals = [(i % 7) * 0.001 + 1e-6 * i for i in range(10_000)]
    expected_total = 0.0
    for seconds in intervals:
        clock.sleep(seconds)
        expected_total += seconds
    assert len(clock.sleeps) == SLEEP_WINDOW
    assert list(clock.sleeps) == intervals[-SLEEP_WINDOW:]
    assert clock.sleep_count == len(intervals)
    # the same left-to-right float additions, so equal bit for bit
    assert clock.total_slept == expected_total == sum(intervals)
    assert clock.now == expected_total


def test_negative_sleep_rejected_and_not_recorded():
    clock = VirtualClock(start=5.0)
    with pytest.raises(ValueError):
        clock.sleep(-1.0)
    assert clock.now == 5.0
    assert clock.sleep_count == 0
    assert clock.total_slept == 0.0
    assert list(clock.sleeps) == []
