"""Backoff schedule math and the retry_call wrapper."""

import pytest

import repro.obs as obs
from repro.faults import RetriesExhausted, RetryPolicy, policies, retry_call


class TestBackoffMath:
    def test_exponential_growth(self):
        policy = RetryPolicy(max_attempts=5, base_us=10_000,
                             cap_us=1_000_000)
        assert [policy.backoff_us(n) for n in (1, 2, 3, 4)] == \
            [10_000, 20_000, 40_000, 80_000]

    def test_cap_applies(self, monkeypatch):
        monkeypatch.setattr(policies, "BACKOFF_MULTIPLIER", 3.0)
        policy = RetryPolicy(max_attempts=10, base_us=100_000,
                             cap_us=250_000)
        assert policy.backoff_us(1) == 100_000
        assert policy.backoff_us(2) == 250_000
        assert policy.backoff_us(9) == 250_000

    def test_schedule_has_one_delay_per_retry(self):
        def always_fails():
            raise RuntimeError("down")

        obs.reset()
        obs.enable()
        try:
            with pytest.raises(RetriesExhausted):
                retry_call(always_fails,
                           RetryPolicy(max_attempts=4, base_us=1_000))
            by_name = {(i.name, i.kind): i
                       for i in obs.get_registry().instruments()}
            backoff = by_name[("fault.retry_backoff_us", "histogram")]
            assert backoff.samples == [1_000, 2_000, 4_000]
        finally:
            obs.reset()

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().backoff_us(0)

    @pytest.mark.parametrize("kw", [{"max_attempts": 0}, {"base_us": -1},
                                    {"cap_us": -1}])
    def test_invalid_policy_rejected(self, kw):
        with pytest.raises(ValueError):
            RetryPolicy(**kw)


class TestRetryCall:
    def test_success_passes_through(self):
        assert retry_call(lambda: 42, RetryPolicy()) == 42

    def test_retries_until_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        assert retry_call(flaky, RetryPolicy(max_attempts=4)) == "ok"
        assert len(calls) == 3

    def test_exhaustion_chains_last_error(self):
        def always_fails():
            raise RuntimeError("still broken")

        with pytest.raises(RetriesExhausted) as info:
            retry_call(always_fails, RetryPolicy(max_attempts=3),
                       label="camera.capture")
        assert info.value.attempts == 3
        assert info.value.label == "camera.capture"
        assert isinstance(info.value.last, RuntimeError)
        assert "camera.capture failed after 3 attempt(s)" in str(info.value)

    def test_non_matching_exception_propagates_immediately(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            retry_call(wrong_kind, RetryPolicy(max_attempts=5),
                       retry_on=(RuntimeError,))
        assert len(calls) == 1

    def test_retry_metrics_recorded(self):
        obs.reset()
        obs.enable()
        try:
            calls = []

            def flaky():
                calls.append(1)
                if len(calls) < 3:
                    raise RuntimeError("transient")
                return "ok"

            retry_call(flaky, RetryPolicy(max_attempts=4, base_us=10_000),
                       label="hal.imu")
            by_name = {(i.name, i.kind): i
                       for i in obs.get_registry().instruments()}
            assert by_name[("fault.retries", "counter")].value == 2
            backoff = by_name[("fault.retry_backoff_us", "histogram")]
            assert backoff.samples == [10_000, 20_000]
        finally:
            obs.reset()
