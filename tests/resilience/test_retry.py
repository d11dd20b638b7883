"""RetryPolicy: deterministic backoff, typed retryability, virtual
sleeps."""

import itertools

import pytest

from repro.errors import LinkError, TransientError
from repro.resilience import RetryPolicy, VirtualClock, is_transient


def take(iterator, n):
    return list(itertools.islice(iterator, n))


class TestSchedule:
    def test_deterministic_per_boundary(self):
        policy = RetryPolicy(seed=3)
        a = take(policy.delays("cloud.upload"), 6)
        b = take(policy.delays("cloud.upload"), 6)
        assert a == b

    def test_decorrelated_across_boundaries(self):
        policy = RetryPolicy()
        assert take(policy.delays("cloud.upload"), 4) != \
            take(policy.delays("toolchain.xocc-link"), 4)

    def test_seed_changes_schedule(self):
        assert take(RetryPolicy(seed=0).delays("x"), 4) != \
            take(RetryPolicy(seed=1).delays("x"), 4)

    def test_exponential_within_jitter_bounds(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=60.0, jitter=0.25)
        delays = take(policy.delays("b"), 10)
        for attempt, delay in enumerate(delays):
            base = min(60.0, 2.0 ** attempt)
            assert base * 0.75 <= delay <= base * 1.25

    def test_cap(self):
        policy = RetryPolicy(base_delay_s=10.0, multiplier=10.0,
                             max_delay_s=30.0, jitter=0.0)
        assert take(policy.delays("b"), 4) == [10.0, 30.0, 30.0, 30.0]

    def test_no_jitter_is_exact(self):
        policy = RetryPolicy(jitter=0.0)
        assert take(policy.delays("b"), 3) == [1.0, 2.0, 4.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCall:
    def test_retries_transient_until_success(self):
        clock = VirtualClock()
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("weather")
            return "done"

        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        assert policy.call(flaky, boundary="b", clock=clock) == "done"
        assert len(calls) == 3
        assert list(clock.sleeps) == [1.0, 2.0]

    def test_exhaustion_reraises_unchanged(self):
        clock = VirtualClock()
        original = TransientError("persistent weather")

        def always():
            raise original

        policy = RetryPolicy(max_attempts=2, jitter=0.0)
        with pytest.raises(TransientError) as info:
            policy.call(always, boundary="b", clock=clock)
        assert info.value is original
        assert list(clock.sleeps) == [1.0]  # one retry, then give up

    def test_deterministic_errors_not_retried(self):
        clock = VirtualClock()
        calls = []

        def broken():
            calls.append(1)
            raise LinkError("kernel does not fit")

        with pytest.raises(LinkError):
            RetryPolicy().call(broken, boundary="b", clock=clock)
        assert len(calls) == 1
        assert list(clock.sleeps) == []

    def test_transient_attribute_flag(self):
        exc = LinkError("flaky license server")
        exc.transient = True
        assert is_transient(exc)
        assert not is_transient(LinkError("real failure"))
        assert is_transient(TransientError("weather"))

    def test_on_retry_hook(self):
        seen = []

        def flaky():
            if not seen:
                raise TransientError("once")
            return 1

        RetryPolicy().call(
            flaky, boundary="b", clock=VirtualClock(),
            on_retry=lambda attempt, exc: seen.append((attempt,
                                                       str(exc))))
        assert seen == [(1, "once")]
