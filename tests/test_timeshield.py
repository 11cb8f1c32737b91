"""Timestamp shielding: quantization, keyed noise, boot independence."""

import re
from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webshield.keyrand import Origin, SessionKey, derive_seed, uniform01
from webshield.timeshield import (
    ContextEpoch,
    ShieldConfig,
    sensor_timestamp,
    shield_stream,
    shield_timestamp,
)

SEED = derive_seed(SessionKey(bytes(32)), Origin.parse("https://a.example"), "time")
PLAIN = ShieldConfig(quantum_ms=10.0, randomize=False)
NOISY = ShieldConfig(quantum_ms=10.0, randomize=True)


class TestShieldTimestamp:
    def test_floor_without_randomization(self):
        assert shield_timestamp(SEED, 123.456, PLAIN) == 120.0

    def test_randomized_stays_in_bucket_and_repeats(self):
        out = shield_timestamp(SEED, 123.456, NOISY)
        assert 120.0 <= out < 130.0
        assert shield_timestamp(SEED, 123.456, NOISY) == out

    def test_randomized_exact_value_from_uniform_oracle(self):
        # bucket 12 noise comes from the keyed uniform at index 12
        expected = 120.0 + uniform01(SEED, 12) * 10.0
        assert shield_timestamp(SEED, 123.456, NOISY) == expected

    def test_bucket_zero(self):
        assert 0.0 <= shield_timestamp(SEED, 0.0, NOISY) < 10.0
        assert shield_timestamp(SEED, 0.0, PLAIN) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            shield_timestamp(SEED, -1.0, NOISY)

    @pytest.mark.parametrize("t_ms", [float("inf"), float("nan")])
    @pytest.mark.parametrize("cfg", [PLAIN, NOISY], ids=["plain", "noisy"])
    def test_non_finite_rejected(self, t_ms, cfg):
        with pytest.raises(ValueError, match="timestamp must be finite and >= 0"):
            shield_timestamp(SEED, t_ms, cfg)
        with pytest.raises(ValueError, match="timestamp must be finite and >= 0"):
            list(shield_stream(SEED, [5.0, t_ms], cfg))

    def test_bucket_past_the_keystream_counter_rejected(self):
        assert shield_timestamp(SEED, 1e308, PLAIN) == 1e308 // 10.0 * 10.0
        with pytest.raises(ValueError, match="64-bit block counter"):
            shield_timestamp(SEED, 1e308, NOISY)

    @pytest.mark.parametrize("randomize", [False, True], ids=["plain", "noisy"])
    def test_bucket_index_overflow_rejected(self, randomize):
        # 5 / 1e-320 is inf: no integer bucket exists
        cfg = ShieldConfig(quantum_ms=1e-320, randomize=randomize)
        with pytest.raises(ValueError, match="overflows the bucket index"):
            shield_timestamp(SEED, 5.0, cfg)
        with pytest.raises(ValueError, match="overflows the bucket index"):
            list(shield_stream(SEED, [0.0, 5.0], cfg))

    def test_bad_quantum_rejected(self):
        with pytest.raises(ValueError):
            ShieldConfig(quantum_ms=0.0)
        with pytest.raises(ValueError):
            ShieldConfig(quantum_ms=-5.0)

    def test_infinite_quantum_rejected(self):
        # 0 * inf would make every plain output NaN
        with pytest.raises(ValueError, match="quantum must be positive and finite"):
            ShieldConfig(quantum_ms=float("inf"))

    def test_same_bucket_same_noise(self):
        a = shield_timestamp(SEED, 120.0, NOISY)
        b = shield_timestamp(SEED, 129.999, NOISY)
        assert a == b

    def test_quantized_outputs_exact_multiples(self):
        for t in [0.0, 7.5, 123.456, 99999.9, 1e9]:
            out = shield_timestamp(SEED, t, PLAIN)
            assert out % 10.0 == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e12), min_size=2, max_size=50))
    @settings(max_examples=200)
    def test_monotone_and_bounded(self, times):
        times.sort()
        outputs = [shield_timestamp(SEED, t, NOISY) for t in times]
        for t, out in zip(times, outputs):
            assert abs(out - t) < 10.0
        for earlier, later in zip(outputs, outputs[1:]):
            assert earlier <= later

    @pytest.mark.parametrize("randomize", [False, True], ids=["plain", "noisy"])
    def test_omitted_config_is_the_default_config(self, randomize):
        """An explicit config, either way, leaves the shared default as
        ``ShieldConfig()`` builds it."""
        cfg = ShieldConfig(randomize=randomize)
        times = [0.0, 9.99, 10.0, 123.456, 98_765.4]
        for t in times:
            default = shield_timestamp(SEED, t, ShieldConfig())
            explicit = shield_timestamp(SEED, t, cfg)
            assert explicit == (default if randomize else t // 10.0 * 10.0)
            assert shield_timestamp(SEED, t) == default
        assert list(shield_stream(SEED, times)) == list(shield_stream(SEED, times, ShieldConfig()))


class TestShieldStream:
    def test_matches_scalar_operation(self):
        times = [0.0, 3.3, 9.99, 10.0, 55.5, 55.6, 1234.5]
        streamed = list(shield_stream(SEED, times, NOISY))
        scalar = [shield_timestamp(SEED, t, NOISY) for t in times]
        assert streamed == scalar

    @given(st.lists(st.one_of(
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=1e12),
        st.sampled_from([0.0, 39.99, 40.0, 1e20, 2e20, 1e308]),
    ), max_size=40), st.sampled_from([10.0, 0.1, 3.0]))
    @example([5.0, 1e308, 6.0], 10.0)  # the second bucket is past the counter
    @settings(max_examples=80)
    def test_any_order_matches_scalar_operation(self, times, quantum):
        """Buckets that repeat, share a block or go back to an earlier
        block; the stream stops with the scalar's error at the first
        bucket past the block counter."""
        cfg = ShieldConfig(quantum_ms=quantum)
        expected, error = [], None
        for t in times:
            try:
                expected.append(shield_timestamp(SEED, t, cfg))
            except ValueError as exc:
                error = str(exc)
                break
        streamed = []
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$") if error else nullcontext():
            for value in shield_stream(SEED, times, cfg):
                streamed.append(value)
        assert streamed == expected

    def test_plain_mode(self):
        assert list(shield_stream(SEED, [12.0, 25.0], PLAIN)) == [10.0, 20.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(shield_stream(SEED, [5.0, -1.0], NOISY))


class TestSensorTimestamp:
    def test_epoch_instant_is_zero_before_shielding(self):
        epoch = ContextEpoch(5000.0)
        assert sensor_timestamp(SEED, epoch, 5000.0, PLAIN) == 0.0

    def test_boot_offset_cancels(self):
        # same context-relative time under wildly different clock origins
        a = sensor_timestamp(SEED, ContextEpoch(0.0), 123.456, NOISY)
        b = sensor_timestamp(SEED, ContextEpoch(1_000_000.0), 1_000_123.456, NOISY)
        assert a == b

    def test_subtract_then_floor(self):
        assert sensor_timestamp(SEED, ContextEpoch(5000.0), 5123.456, PLAIN) == 120.0

    def test_reading_before_epoch_rejected(self):
        with pytest.raises(ValueError):
            sensor_timestamp(SEED, ContextEpoch(5000.0), 4999.0, PLAIN)

    @given(shift=st.floats(min_value=0, max_value=1e9), rel=st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=100)
    def test_depends_only_on_relative_time(self, shift, rel):
        # shifting epoch and raw clock together leaves only the relative
        # time; the output must be a function of that alone (the float
        # addition may perturb it by an ulp, so compare against the
        # exact relative value that survived the arithmetic)
        moved = sensor_timestamp(SEED, ContextEpoch(shift), shift + rel, NOISY)
        surviving_rel = (shift + rel) - shift
        assert moved == shield_timestamp(SEED, surviving_rel, NOISY)

    def test_context_epoch_now_is_monotonic_ms(self):
        a = ContextEpoch.now()
        b = ContextEpoch.now()
        assert b.epoch_ms >= a.epoch_ms
