"""Stationary-device sensor synthesis.

The magnetometer oracle evaluates the analytic sum-of-sines directly
from the state's bank parameters with numpy, independent of the sample
loop.
"""

import hashlib
import math
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from webshield.keyrand import Origin, SessionKey, block_draws, derive_seed
from webshield import sensorsim
from webshield.sensorsim import (
    AMBIENT_STEP_LUX,
    GRAVITY_MS2,
    GYRO_MAX_RAD_S,
    LINEAR_ACCEL_MAX_MS2,
    MAG_AMP_UT,
    MAG_FIELD_UT,
    MAG_PERIOD_S,
    SINES_PER_AXIS,
    SensorKind,
    _normalize,
    init_device_state,
    rotate_world_to_device,
    SineBank,
    SineTerm,
    sample,
    sample_many,
)
from webshield.timeshield import ShieldConfig, shield_timestamp, time_subseed

SEED = derive_seed(SessionKey(bytes(32)), Origin.parse("https://a.example"), "sensor")
SEED_B = derive_seed(SessionKey(bytes(32)), Origin.parse("https://b.example"), "sensor")


@pytest.fixture(scope="module")
def state():
    return init_device_state(SEED)


def analytic_magnetometer(state, t_ms: float) -> tuple:
    """Direct evaluation of baseline + sum of sines, vectorized."""
    t_s = t_ms / 1000.0
    out = []
    for base, bank in zip(state.mag_baseline, state.mag_banks):
        amps = np.array([term.amplitude for term in bank.terms])
        periods = np.array([term.period_s for term in bank.terms])
        phases = np.array([term.phase for term in bank.terms])
        out.append(base + float(np.sum(amps * np.sin(2 * np.pi * t_s / periods + phases))))
    return tuple(out)


class TestInitDeviceState:
    def test_same_seed_same_state(self, state):
        assert init_device_state(SEED) == state

    def test_different_seed_different_state(self, state):
        other = init_device_state(SEED_B)
        assert other.mag_baseline != state.mag_baseline

    def test_bank_sizes_in_range(self, state):
        for bank in state.mag_banks:
            assert SINES_PER_AXIS[0] <= len(bank.terms) <= SINES_PER_AXIS[1]

    def test_orientation_normalized(self, state):
        assert abs(math.sqrt(sum(c * c for c in state.orientation)) - 1.0) <= 1e-9

    def test_baseline_magnitude_plausible(self, state):
        magnitude = math.sqrt(sum(c * c for c in state.mag_baseline))
        assert MAG_FIELD_UT[0] <= magnitude <= MAG_FIELD_UT[1]

    def test_term_parameters_in_range(self, state):
        for bank in state.mag_banks:
            triples = set()
            for term in bank.terms:
                assert MAG_AMP_UT[0] <= term.amplitude <= MAG_AMP_UT[1]
                assert MAG_PERIOD_S[0] <= term.period_s <= MAG_PERIOD_S[1]
                assert 0.0 <= term.phase < 2 * math.pi
                triples.add((term.amplitude, term.period_s, term.phase))
            assert len(triples) == len(bank.terms)

    def test_ambient_light_lit_room_quantized(self, state):
        assert state.ambient_lux % AMBIENT_STEP_LUX == 0
        assert 100.0 <= state.ambient_lux <= 500.0


class TestSample:
    def test_unknown_kind_rejected(self, state):
        with pytest.raises(ValueError):
            sample(state, "thermometer", 0.0)

    def test_negative_time_rejected(self, state):
        with pytest.raises(ValueError):
            sample(state, SensorKind.GRAVITY, -1.0)

    def test_cross_tab_consistency(self, state):
        # two states from the same seed act like two tabs of one origin
        twin = init_device_state(SEED)
        for kind in SensorKind:
            t = 731.25
            assert sample(state, kind, t) == sample(twin, kind, t)

    def test_magnetometer_matches_analytic_oracle(self, state):
        for i in range(0, 6000, 97):
            t_ms = i * 100.0
            reading = sample(state, SensorKind.MAGNETOMETER, t_ms)
            oracle = analytic_magnetometer(state, t_ms)
            for got, want in zip(reading.value, oracle):
                assert abs(got - want) <= 1e-9

    def test_sine_bank_sums_left_to_right(self):
        # A compensated sum (sum() of floats from Python 3.12 on) gives 1.0.
        up = math.pi / 2
        bank = SineBank((SineTerm(1e16, 1.0, up), SineTerm(1.0, 1.0, up), SineTerm(-1e16, 1.0, up)))
        assert bank.value(0.0) == 0.0

    def test_normalize_sums_squares_left_to_right(self):
        # Found in a seeded random set: a compensated sum of the squares
        # (math.fsum, or sum() of floats from Python 3.12 on) rounds the
        # norm one ulp lower and changes the normalized components.
        q = (0.6888437030500962, 0.515908805880605, -0.15885683833831, -0.4821664994140733)
        w, x, y, z = q
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        compensated = math.sqrt(math.fsum(c * c for c in q))
        assert norm != compensated
        assert _normalize(q) == tuple(c / norm for c in q)

    def test_magnetometer_fluctuates_within_envelope(self, state):
        # 10 Hz for 600 s: magnitude stays near the baseline but moves
        base_mag = math.sqrt(sum(c * c for c in state.mag_baseline))
        magnitudes = []
        for i in range(6000):
            v = sample(state, SensorKind.MAGNETOMETER, i * 100.0).value
            magnitudes.append(math.sqrt(sum(c * c for c in v)))
        magnitudes = np.array(magnitudes)
        assert np.all(np.abs(magnitudes - base_mag) <= 15.0)
        assert np.var(magnitudes) > 0.0

    def test_gravity_magnitude(self, state):
        for t_ms in [0.0, 333.0, 9999.0]:
            v = sample(state, SensorKind.GRAVITY, t_ms).value
            magnitude = math.sqrt(sum(c * c for c in v))
            assert abs(magnitude - GRAVITY_MS2) <= 0.05

    def test_linear_acceleration_bounded(self, state):
        for t_ms in np.linspace(0, 60_000, 200):
            v = sample(state, SensorKind.LINEAR_ACCELERATION, float(t_ms)).value
            assert math.sqrt(sum(c * c for c in v)) <= LINEAR_ACCEL_MAX_MS2

    def test_gyroscope_bounded(self, state):
        for t_ms in np.linspace(0, 60_000, 200):
            v = sample(state, SensorKind.GYROSCOPE, float(t_ms)).value
            assert math.sqrt(sum(c * c for c in v)) <= GYRO_MAX_RAD_S

    def test_accelerometer_is_gravity_plus_linear(self, state):
        for t_ms in [0.0, 250.0, 1234.5, 80_000.0]:
            acc = sample(state, SensorKind.ACCELEROMETER, t_ms).value
            grav = sample(state, SensorKind.GRAVITY, t_ms).value
            lin = sample(state, SensorKind.LINEAR_ACCELERATION, t_ms).value
            for a, g, l in zip(acc, grav, lin):
                assert abs(a - (g + l)) <= 1e-6

    def test_orientation_gravity_agreement(self, state):
        # rotating the sampled gravity back through the sampled attitude
        # must recover the world-frame gravity vector
        for t_ms in [0.0, 500.0, 3600.0]:
            quat = sample(state, SensorKind.ORIENTATION_ABS, t_ms).value
            grav = sample(state, SensorKind.GRAVITY, t_ms).value
            conjugate = (quat[0], -quat[1], -quat[2], -quat[3])
            world = rotate_world_to_device(conjugate, grav)
            assert abs(world[0]) <= 0.05
            assert abs(world[1]) <= 0.05
            assert abs(world[2] - (-GRAVITY_MS2)) <= 0.05

    def test_orientation_output_is_unit_quaternion(self, state):
        for kind in (SensorKind.ORIENTATION_ABS, SensorKind.ORIENTATION_REL):
            quat = sample(state, kind, 42.0).value
            assert len(quat) == 4
            assert abs(math.sqrt(sum(c * c for c in quat)) - 1.0) <= 1e-9

    def test_ambient_light_constant_per_state(self, state):
        values = {sample(state, SensorKind.AMBIENT_LIGHT, t).value for t in [0.0, 100.0, 5e5]}
        assert values == {state.ambient_lux}

    def test_restart_reproduces_sequences(self):
        first = [
            sample(init_device_state(SEED), kind, t).value
            for kind in SensorKind
            for t in (0.0, 123.0)
        ]
        second = [
            sample(init_device_state(SEED), kind, t).value
            for kind in SensorKind
            for t in (0.0, 123.0)
        ]
        assert first == second


class TestKindLookup:
    """A kind is a SensorKind member or its value, nothing else."""

    @pytest.mark.parametrize("kind", list(SensorKind))
    def test_value_and_member_give_the_same_readings(self, state, kind):
        times = BATCH_TIMES[:12]
        by_value = [sample(state, kind.value, t) for t in times]
        assert by_value == [sample(state, kind, t) for t in times]
        assert all(r.kind is kind for r in by_value)
        assert list(sample_many(state, kind.value, times)) == by_value
        assert list(sample_many(state, kind, times)) == by_value

    @pytest.mark.parametrize("kind", [3, None, ["x"], b"gyroscope", "Gyroscope"])
    def test_anything_else_is_an_unknown_kind(self, state, kind):
        message = f"^unknown sensor kind: {re.escape(repr(kind))}$"
        with pytest.raises(ValueError, match=message):
            sample(state, kind, 0.0)
        with pytest.raises(ValueError, match=message):
            next(sample_many(state, kind, [0.0]))


class TestTimestamps:
    def test_timestamp_is_context_relative_and_shielded(self, state):
        cfg = ShieldConfig(quantum_ms=10.0, randomize=False)
        reading = sample(state, SensorKind.GRAVITY, 123.456, cfg)
        assert reading.timestamp_ms == 120.0

    @pytest.mark.parametrize(
        "t", [0.0, 9.999999999999998, 10.0, 99.99999999999999, 12_340.0, 12_349.999999999998]
    )
    def test_context_time_shielded_directly_at_bucket_edges(self, state, t):
        # no clock origin is added and subtracted, so a time just below a
        # bucket edge stays in its bucket
        reading = sample(state, SensorKind.MAGNETOMETER, t)
        assert reading.timestamp_ms == shield_timestamp(time_subseed(SEED), t)

    def test_timestamp_within_quantum(self, state):
        reading = sample(state, SensorKind.GRAVITY, 777.0)
        assert abs(reading.timestamp_ms - 777.0) < 10.0


class TestGolden:
    # Pins the bytes of the state and of every kind's readings and
    # timestamps; any change to one of them changes the digest.
    ALL_KINDS_SHA256 = "1dc19c0b32256b774b552384b299307665639f7a4e7af042d7f1ba893d168042"

    def test_state_and_every_kind_pinned(self):
        state = init_device_state(SEED)
        digest = hashlib.sha256(repr(state).encode())
        for shield_cfg in (None, ShieldConfig(quantum_ms=5.0, randomize=False)):
            for kind in SensorKind:
                for i in range(50):
                    reading = sample(state, kind, i * 37.5, shield_cfg)
                    digest.update(repr((kind.value, reading.value, reading.timestamp_ms)).encode())
        assert digest.hexdigest() == self.ALL_KINDS_SHA256


class TestNoiseMemo:
    def test_bounded_memo_gives_the_prefix_free_draws(self, monkeypatch):
        """With room for two prefixes, three seeds times two labels in
        alternating order evict each other; every reading still equals
        the draws of one hash over the whole input."""
        monkeypatch.setattr(sensorsim, "_NOISE_PREFIXES_MAX", 2)
        monkeypatch.setattr(sensorsim, "_noise_prefixes", {})
        seed_c = derive_seed(SessionKey(bytes(32)), Origin.parse("https://c.example"), "sensor")
        for t_ms in (0.0, 37.5, 37.5, 1e12):
            for seed in (SEED, SEED_B, seed_c):
                for label in ("gravity", "linear"):
                    digest = hashlib.sha256(
                        seed.value + b"noise/" + label.encode("ascii") + struct.pack("<d", t_ms)
                    ).digest()
                    assert sensorsim._noise_uniforms(seed, label, t_ms) == block_draws(digest)
                    assert len(sensorsim._noise_prefixes) <= 2


# Times on both sides of bucket edges, out of order, repeated, as ints,
# and up to 1e12 ms, where the sine arguments are large.
BATCH_TIMES = [i * 37.5 for i in range(40)] + [
    0, 7, 9.999999999999998, 10.0, 5.0, 5.0, 123.456, 1e-300, 5e-324,
    3_600_000.0, 86_400_000.0 + 0.1, 1e9, 123_456_789_012.25, 1e12,
]


class TestSampleMany:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # chunk edges fall inside BATCH_TIMES
        monkeypatch.setattr(sensorsim, "SAMPLE_CHUNK", 7)

    @pytest.mark.parametrize("shield_cfg", [None, ShieldConfig(quantum_ms=5.0, randomize=False)])
    @pytest.mark.parametrize("kind", list(SensorKind))
    def test_equals_sample_bit_for_bit(self, state, kind, shield_cfg):
        batch = list(sample_many(state, kind, BATCH_TIMES, shield_cfg))
        scalar = [sample(state, kind, t, shield_cfg) for t in BATCH_TIMES]
        assert [r.value for r in batch] == [r.value for r in scalar]
        assert [r.timestamp_ms for r in batch] == [r.timestamp_ms for r in scalar]
        assert batch == scalar

    def test_math_sin_fallback_gives_the_same_bytes(self, state, monkeypatch):
        monkeypatch.setattr(sensorsim, "_batch_sin", None)
        monkeypatch.setattr(np, "sin", np.cos)  # the probe must reject it
        batch = list(sample_many(state, SensorKind.MAGNETOMETER, BATCH_TIMES))
        assert sensorsim._batch_sin is sensorsim._math_sin
        assert batch == [sample(state, SensorKind.MAGNETOMETER, t) for t in BATCH_TIMES]

    @pytest.mark.parametrize("bad, error", [
        (math.nan, "sample time must be finite and >= 0, got nan"),
        (-1.0, "sample time must be finite and >= 0, got -1.0"),
        (math.inf, "sample time must be finite and >= 0, got inf"),
    ])
    @pytest.mark.parametrize("kind", [SensorKind.MAGNETOMETER, SensorKind.GYROSCOPE])
    def test_bad_time_raises_after_the_readings_before_it(self, state, kind, bad, error):
        times = BATCH_TIMES[:10] + [bad] + BATCH_TIMES[10:]  # after one full chunk
        readings = sample_many(state, kind, times)
        for t in times[:10]:
            assert next(readings) == sample(state, kind, t)
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            next(readings)
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            sample(state, kind, bad)

    def test_non_number_time_raises_after_the_readings_before_it(self, state):
        readings = sample_many(state, "gyroscope", [0.0, "x"])
        assert next(readings) == sample(state, "gyroscope", 0.0)
        with pytest.raises(TypeError):
            next(readings)

    def test_overflowing_timestamp_raises_after_the_readings_before_it(self, state):
        cfg = ShieldConfig(quantum_ms=5e-324)
        readings = sample_many(state, SensorKind.MAGNETOMETER, [0.0, 1000.0], cfg)
        assert next(readings) == sample(state, SensorKind.MAGNETOMETER, 0.0, cfg)
        with pytest.raises(ValueError, match="overflows the bucket index"):
            next(readings)

    def test_timestamp_noise_past_the_float_range_raises(self, state):
        top = sys.float_info.max  # bucket 1 of this quantum: any noise overflows
        cfg = ShieldConfig(quantum_ms=top)
        with pytest.raises(ValueError, match="overflows the bucket index"):
            sample(state, SensorKind.MAGNETOMETER, top, cfg)
        readings = sample_many(state, SensorKind.MAGNETOMETER, [0.0, top], cfg)
        assert next(readings) == sample(state, SensorKind.MAGNETOMETER, 0.0, cfg)
        with pytest.raises(ValueError, match="overflows the bucket index"):
            next(readings)

    def test_unknown_kind_rejected(self, state):
        with pytest.raises(ValueError, match="unknown sensor kind"):
            next(sample_many(state, "thermometer", [0.0]))

    def test_import_leaves_numpy_and_the_probe_unloaded(self):
        code = ("import sys, webshield.sensorsim as s; "
                "assert 'numpy' not in sys.modules and s._batch_sin is None")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_library_import_leaves_numpy_unloaded_until_a_payload_needs_it(self):
        code = ("import sys; "
                "from webshield import cli, farble, formats, profiles, fpd, nbs, proxy; "
                "assert 'numpy' not in sys.modules; "
                "farble.AudioSamples(8000, [[0.0]]); "
                "assert 'numpy' in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True)
