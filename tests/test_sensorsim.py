"""Stationary-device sensor synthesis.

The magnetometer oracle evaluates the analytic sum-of-sines directly
from the state's bank parameters with numpy, independent of the sample
loop.
"""

import math

import numpy as np
import pytest

from webshield.keyrand import Origin, SessionKey, derive_seed
from webshield.sensorsim import (
    GRAVITY_MS2,
    MODEL,
    SensorKind,
    init_device_state,
    rotate_world_to_device,
    sample,
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
            assert MODEL.sines_min <= len(bank.terms) <= MODEL.sines_max

    def test_orientation_normalized(self, state):
        assert abs(math.sqrt(sum(c * c for c in state.orientation)) - 1.0) <= 1e-9

    def test_baseline_magnitude_plausible(self, state):
        magnitude = math.sqrt(sum(c * c for c in state.mag_baseline))
        assert MODEL.mag_field_ut[0] <= magnitude <= MODEL.mag_field_ut[1]

    def test_term_parameters_in_range(self, state):
        for bank in state.mag_banks:
            triples = set()
            for term in bank.terms:
                assert MODEL.mag_amp_ut[0] <= term.amplitude <= MODEL.mag_amp_ut[1]
                assert MODEL.mag_period_s[0] <= term.period_s <= MODEL.mag_period_s[1]
                assert 0.0 <= term.phase < 2 * math.pi
                triples.add((term.amplitude, term.period_s, term.phase))
            assert len(triples) == len(bank.terms)

    def test_ambient_light_lit_room_quantized(self, state):
        assert state.ambient_lux % MODEL.ambient_step_lux == 0
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
            assert math.sqrt(sum(c * c for c in v)) <= MODEL.linear_accel_max_ms2

    def test_gyroscope_bounded(self, state):
        for t_ms in np.linspace(0, 60_000, 200):
            v = sample(state, SensorKind.GYROSCOPE, float(t_ms)).value
            assert math.sqrt(sum(c * c for c in v)) <= MODEL.gyro_max_rad_s

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
