"""Fake readings for a simulated stationary device.

Instead of exposing real hardware sensors, the engine invents a device
that never moves: a fixed attitude, a fixed local magnetic field, and
per-axis fluctuation patterns, all derived from one seed so every
consumer under the same origin and session observes the same device.

A real resting magnetometer drifts noticeably, so each magnetic axis
fluctuates as a bank of 20 to 30 sinusoids (``SINES_PER_AXIS``), each
with its own amplitude, period and phase.  The remaining sensors deviate
only slightly from their stationary values: bounded keyed noise around
the attitude-consistent baselines (gravity rotated into the device
frame, zero linear acceleration, zero angular velocity).  The device's
bounds are module constants; every device shares them.

Reading timestamps are context-relative and shielded, never exposing
the absolute clock origin.  ``sample`` reads one instant; ``sample_many``
yields the same readings for a stream of instants in batches.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .keyrand import FarbleSeed, block_draws, uniform01, uniform_range
from .timeshield import ShieldConfig, shield_stream, shield_timestamp, time_subseed

GRAVITY_MS2 = 9.80665

# Constants of the fake device.  The shapes make traces visually
# plausible; the exact numbers are calibration targets, not physical
# ground truth.
SINES_PER_AXIS = (20, 30)
MAG_AMP_UT = (0.05, 0.5)
MAG_PERIOD_S = (2.0, 600.0)
MAG_FIELD_UT = (25.0, 65.0)
LINEAR_ACCEL_MAX_MS2 = 0.1
GYRO_MAX_RAD_S = 0.01
AMBIENT_STEP_LUX = 50
AMBIENT_STEPS = (2, 10)  # lit-room range: 100..500 lux

# Noise scale per reading, the same for every device.
_GRAVITY_NOISE = 0.01
_LINEAR_NOISE = LINEAR_ACCEL_MAX_MS2 / math.sqrt(3.0)
_GYRO_NOISE = GYRO_MAX_RAD_S / math.sqrt(3.0)
_ORIENTATION_NOISE = math.radians(0.1)

# Readings per batch in sample_many: bounds the memory a long stream holds.
SAMPLE_CHUNK = 1024
_MAX_TIME = sys.float_info.max  # the latest time a reading may have


class SensorKind(str, Enum):
    MAGNETOMETER = "magnetometer"
    ACCELEROMETER = "accelerometer"
    LINEAR_ACCELERATION = "linear_acceleration"
    GRAVITY = "gravity"
    GYROSCOPE = "gyroscope"
    ORIENTATION_ABS = "orientation_abs"
    ORIENTATION_REL = "orientation_rel"
    AMBIENT_LIGHT = "ambient_light"


class SineTerm(NamedTuple):
    amplitude: float
    period_s: float
    phase: float


@dataclass(frozen=True)
class SineBank:
    """Sum-of-sines fluctuation pattern for one axis."""

    terms: tuple

    def value(self, t_s: float) -> float:
        sin = math.sin
        w = 2.0 * math.pi * t_s
        # An explicit left-to-right sum: sum() of floats is compensated
        # from Python 3.12 on, which would change the values.
        total = 0.0
        for a, p, ph in self.terms:
            total += a * sin(w / p + ph)
        return total


@dataclass(frozen=True)
class DeviceState:
    """Immutable generated device, fully determined by its seed."""

    seed: FarbleSeed
    time_seed: FarbleSeed  # time_subseed(seed), for the reading timestamps
    orientation: tuple  # unit quaternion (w, x, y, z), device -> world
    gravity: tuple  # the world's gravity in the device frame, m/s^2
    mag_baseline: tuple  # microtesla
    mag_banks: tuple  # one SineBank per axis
    ambient_lux: float
    noise: dict = field(compare=False, repr=False)  # label -> sha256(seed || b"noise/" || label)


class SensorReading(NamedTuple):
    kind: SensorKind
    value: object  # 3-tuple, 4-tuple quaternion, or scalar
    timestamp_ms: float


_new_tuple = tuple.__new__  # a reading from its fields' tuple, minus the class's __new__


class _Draw:
    """Sequential uniform draws from a seed with a running index."""

    def __init__(self, seed: FarbleSeed):
        self.seed = seed
        self.index = 0

    def u01(self) -> float:
        v = uniform01(self.seed, self.index)
        self.index += 1
        return v

    def between(self, lo: float, hi: float) -> float:
        return lo + self.u01() * (hi - lo)

    def integer(self, lo: int, hi: int) -> int:
        v = uniform_range(self.seed, self.index, lo, hi)
        self.index += 1
        return v


def _unit_quaternion(draw: _Draw) -> tuple:
    # Uniform on the rotation group from three uniforms.
    u1, u2, u3 = draw.u01(), draw.u01(), draw.u01()
    s1, s2 = math.sqrt(1.0 - u1), math.sqrt(u1)
    t1, t2 = 2.0 * math.pi * u2, 2.0 * math.pi * u3
    q = (s2 * math.cos(t2), s1 * math.sin(t1), s1 * math.cos(t1), s2 * math.sin(t2))
    return _normalize(q)


def _normalize(q: tuple) -> tuple:
    # An explicit left-to-right sum, as in SineBank.value.
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / n, x / n, y / n, z / n)


def _direction(u_z: float, u_azimuth: float, length: float = 1.0) -> tuple:
    """A vector of ``length`` pointing in the uniform direction that two
    uniforms select."""
    z = 2.0 * u_z - 1.0
    azimuth = 2.0 * math.pi * u_azimuth
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return (length * r * math.cos(azimuth), length * r * math.sin(azimuth), length * z)


def _quat_mul(a: tuple, b: tuple) -> tuple:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def rotate_world_to_device(q: tuple, v: tuple) -> tuple:
    """Express a world-frame vector in the device frame given the
    device-to-world attitude quaternion."""
    conj = (q[0], -q[1], -q[2], -q[3])
    return _quat_mul(_quat_mul(conj, (0.0, *v)), q)[1:]


def init_device_state(seed: FarbleSeed) -> DeviceState:
    """Generate the stationary device for a seed.

    Attitude is uniform over rotations; the magnetic baseline points in a
    uniform direction with magnitude in the plausible Earth-field band;
    each magnetometer axis gets its own sine bank with a pseudorandom
    term count and per-term parameters.  Re-running with the same seed
    reproduces the identical state.
    """
    draw = _Draw(seed)
    orientation = _unit_quaternion(draw)

    baseline = _direction(draw.u01(), draw.u01(), draw.between(*MAG_FIELD_UT))
    ambient = float(AMBIENT_STEP_LUX * draw.integer(*AMBIENT_STEPS))

    banks = []
    for _axis in range(3):
        terms = [
            SineTerm(
                amplitude=draw.between(*MAG_AMP_UT),
                period_s=draw.between(*MAG_PERIOD_S),
                phase=2.0 * math.pi * draw.u01(),
            )
            for _ in range(draw.integer(*SINES_PER_AXIS))
        ]
        banks.append(SineBank(tuple(terms)))

    return DeviceState(
        seed=seed,
        time_seed=time_subseed(seed),
        orientation=orientation,
        gravity=rotate_world_to_device(orientation, (0.0, 0.0, -GRAVITY_MS2)),
        mag_baseline=baseline,
        mag_banks=tuple(banks),
        ambient_lux=ambient,
        noise={
            label: hashlib.sha256(seed.value + b"noise/" + label.encode("ascii"))
            for label in ("linear", "gravity", "gyro", "orient_abs", "orient_rel")
        },
    )


_pack_f64 = struct.Struct("<d").pack


def _noise_uniforms(state: DeviceState, label: str, t_ms: float) -> tuple:
    """Four keyed uniforms bound to (seed, label, t): the draws of
    SHA-256(seed || b"noise/" || label || LE(t)).  Each reading copies the
    device's hash state for the label and hashes only its time."""
    h = state.noise[label].copy()
    h.update(_pack_f64(t_ms))
    return block_draws(h.digest())


def _noise_vec(state: DeviceState, label: str, t_ms: float, scale: float) -> tuple:
    a, b, c, _ = _noise_uniforms(state, label, t_ms)
    return (scale * (2.0 * a - 1.0), scale * (2.0 * b - 1.0), scale * (2.0 * c - 1.0))


def _perturbed_orientation(state: DeviceState, label: str, t_ms: float) -> tuple:
    ua, ub, _, ud = _noise_uniforms(state, label, t_ms)
    half = ud * _ORIENTATION_NOISE / 2.0
    s, (x, y, z) = math.sin(half), _direction(ua, ub)
    dq = (math.cos(half), s * x, s * y, s * z)
    return _normalize(_quat_mul(dq, state.orientation))


def _magnetometer(state: DeviceState, t_ms: float) -> tuple:
    t_s = t_ms / 1000.0
    (bx, by, bz), (mx, my, mz) = state.mag_baseline, state.mag_banks
    return (bx + mx.value(t_s), by + my.value(t_s), bz + mz.value(t_s))


def _gravity(state: DeviceState, t_ms: float) -> tuple:
    gx, gy, gz = state.gravity
    nx, ny, nz = _noise_vec(state, "gravity", t_ms, _GRAVITY_NOISE)
    return (gx + nx, gy + ny, gz + nz)


def _accelerometer(state: DeviceState, t_ms: float) -> tuple:
    gx, gy, gz = _gravity(state, t_ms)
    ax, ay, az = _noise_vec(state, "linear", t_ms, _LINEAR_NOISE)
    return (gx + ax, gy + ay, gz + az)


_KINDS = {kind.value: kind for kind in SensorKind}  # a member hashes as its value
# Each kind's value at one time: f(state, t_ms).
_VALUE_OF = {
    SensorKind.MAGNETOMETER: _magnetometer,
    SensorKind.ACCELEROMETER: _accelerometer,
    SensorKind.LINEAR_ACCELERATION: lambda state, t: _noise_vec(state, "linear", t, _LINEAR_NOISE),
    SensorKind.GRAVITY: _gravity,
    SensorKind.GYROSCOPE: lambda state, t: _noise_vec(state, "gyro", t, _GYRO_NOISE),
    SensorKind.ORIENTATION_ABS: lambda state, t: _perturbed_orientation(state, "orient_abs", t),
    SensorKind.ORIENTATION_REL: lambda state, t: _perturbed_orientation(state, "orient_rel", t),
    SensorKind.AMBIENT_LIGHT: lambda state, t: state.ambient_lux,
}


def _sensor_kind(kind: SensorKind | str) -> SensorKind:
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown sensor kind: {kind!r}") from None


def _check_time(t_ms: float) -> None:
    if not 0 <= t_ms <= _MAX_TIME:  # an int past the float range fails, as inf does
        raise ValueError(f"sample time must be finite and >= 0, got {t_ms}")


def sample(
    state: DeviceState, kind: SensorKind | str, t_ms: float, shield_cfg: ShieldConfig | None = None
) -> SensorReading:
    """Read the fake device at context-relative time ``t_ms``.

    Pure in (state, kind, t): every same-origin consumer sampling the
    same instant sees the identical reading.  The reported timestamp is
    the shielded context-relative time.
    """
    kind = _sensor_kind(kind)
    _check_time(t_ms)
    return _new_tuple(SensorReading, (kind, _VALUE_OF[kind](state, t_ms),
                                      shield_timestamp(state.time_seed, t_ms, shield_cfg)))


def _sin_probe_args() -> list:
    """4,352 fixed arguments from 0 to 1e15: LCG mantissas scaled by each
    power of two from 2**-14 to 2**49, integer multiples of pi/2 (where
    argument reduction is hardest), 0 and 1e15.  Built from exact
    integer and power-of-two steps, so the set is the same everywhere."""
    args, x = [0.0, 1e15], 1
    for i in range(4096):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        args.append(math.ldexp(x >> 11, i % 64 - 67))
    args += [k * (math.pi / 2) for k in range(1, 255)]
    return args


_batch_sin = None  # the vector sin of the magnetometer batches, chosen once


def _math_sin(x):
    import numpy as np

    return np.fromiter(map(math.sin, x.tolist()), dtype=np.float64, count=len(x))


def _vector_sin():
    """``np.sin`` if it gives ``math.sin``'s bits on the probe set, else
    ``math.sin`` mapped over the vector: the bytes never depend on the
    numpy build."""
    global _batch_sin
    if _batch_sin is None:
        import numpy as np

        probe = np.array(_sin_probe_args(), dtype=np.float64)
        _batch_sin = (np.sin if np.sin(probe).tobytes() == _math_sin(probe).tobytes()
                      else _math_sin)
    return _batch_sin


def _magnetometer_values(state: DeviceState, times: list) -> list:
    """``_magnetometer``'s readings at every time, one axis at a
    time over a float64 vector: the same IEEE operations in the same
    order as ``SineBank.value``, so the same floats."""
    import numpy as np

    sin = _vector_sin()
    w = 2.0 * math.pi * (np.array(times, dtype=np.float64) / 1000.0)
    axes = []
    for base, bank in zip(state.mag_baseline, state.mag_banks):
        total = np.zeros_like(w)
        for a, p, ph in bank.terms:
            total = total + a * sin(w / p + ph)
        axes.append((base + total).tolist())
    return list(zip(*axes))


def sample_many(
    state: DeviceState, kind: SensorKind | str, t_ms_seq: Iterable[float],
    shield_cfg: ShieldConfig | None = None,
) -> Iterator[SensorReading]:
    """``sample`` at each time of ``t_ms_seq``, lazily and bit for bit.

    Times are read and sampled ``SAMPLE_CHUNK`` at a time; a
    magnetometer chunk is one vector computation.  A bad time or an
    overflowing timestamp raises ``sample``'s error once the readings
    before it have been yielded.
    """
    kind = _sensor_kind(kind)
    value_of = _VALUE_OF[kind]
    times = iter(t_ms_seq)
    while chunk := list(islice(times, SAMPLE_CHUNK)):
        n = 0  # chunk[:n] passes the time check
        try:
            for t_ms in chunk:
                _check_time(t_ms)
                n += 1
        except (TypeError, ValueError):
            pass  # raised again below, after the readings before it
        good = chunk[:n]
        values = (_magnetometer_values(state, good) if kind is SensorKind.MAGNETOMETER
                  else [value_of(state, t_ms) for t_ms in good])
        stamps = shield_stream(state.time_seed, good, shield_cfg)
        for value, stamp in zip(values, stamps):
            yield _new_tuple(SensorReading, (kind, value, stamp))
        if n < len(chunk):
            _check_time(chunk[n])  # raises that time's error
