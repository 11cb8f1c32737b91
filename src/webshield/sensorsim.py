"""Fake readings for a simulated stationary device.

Instead of exposing real hardware sensors, the engine invents a device
that never moves: a fixed attitude, a fixed local magnetic field, and
per-axis fluctuation patterns, all derived from one seed so every
consumer under the same origin and session observes the same device.

A real resting magnetometer drifts noticeably, so each magnetic axis
fluctuates as a bank of 20 to 30 sinusoids with distinct amplitudes,
periods and phases.  The remaining sensors deviate only slightly from
their stationary values and are modeled as bounded keyed noise around
the attitude-consistent baselines (gravity rotated into the device
frame, zero linear acceleration, zero angular velocity).

Reading timestamps are context-relative and shielded, never exposing
the absolute clock origin.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from enum import Enum

from .keyrand import FarbleSeed, uniform01, uniform_range
from .timeshield import ShieldConfig, shield_timestamp, time_subseed

GRAVITY_MS2 = 9.80665


@dataclass(frozen=True)
class SensorModel:
    """Tunable constants of the fake device, kept in one place.

    The shapes below make traces visually plausible; the exact numbers
    are calibration targets, not physical ground truth.
    """

    sines_min: int = 20
    sines_max: int = 30
    mag_amp_ut: tuple = (0.05, 0.5)
    mag_period_s: tuple = (2.0, 600.0)
    mag_field_ut: tuple = (25.0, 65.0)
    gravity_noise_ms2: float = 0.01
    linear_accel_max_ms2: float = 0.1
    gyro_max_rad_s: float = 0.01
    orientation_noise_deg: float = 0.1
    ambient_step_lux: int = 50
    ambient_steps: tuple = (2, 10)  # lit-room range: 100..500 lux


MODEL = SensorModel()


class SensorKind(str, Enum):
    MAGNETOMETER = "magnetometer"
    ACCELEROMETER = "accelerometer"
    LINEAR_ACCELERATION = "linear_acceleration"
    GRAVITY = "gravity"
    GYROSCOPE = "gyroscope"
    ORIENTATION_ABS = "orientation_abs"
    ORIENTATION_REL = "orientation_rel"
    AMBIENT_LIGHT = "ambient_light"


@dataclass(frozen=True)
class SineTerm:
    amplitude: float
    period_s: float
    phase: float


@dataclass(frozen=True)
class SineBank:
    """Sum-of-sines fluctuation pattern for one axis."""

    terms: tuple

    def value(self, t_s: float) -> float:
        return sum(
            term.amplitude * math.sin(2.0 * math.pi * t_s / term.period_s + term.phase)
            for term in self.terms
        )


@dataclass(frozen=True)
class DeviceState:
    """Immutable generated device, fully determined by its seed."""

    seed: FarbleSeed
    orientation: tuple  # unit quaternion (w, x, y, z), device -> world
    mag_baseline: tuple  # microtesla
    mag_banks: tuple  # one SineBank per axis
    ambient_lux: float
    noise_scales: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SensorReading:
    kind: SensorKind
    value: object  # 3-tuple, 4-tuple quaternion, or scalar
    timestamp_ms: float


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
    n = math.sqrt(sum(c * c for c in q))
    return tuple(c / n for c in q)


def _quat_mul(a: tuple, b: tuple) -> tuple:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _quat_conj(q: tuple) -> tuple:
    return (q[0], -q[1], -q[2], -q[3])


def rotate_world_to_device(q: tuple, v: tuple) -> tuple:
    """Express a world-frame vector in the device frame given the
    device-to-world attitude quaternion."""
    p = (0.0, *v)
    out = _quat_mul(_quat_mul(_quat_conj(q), p), q)
    return out[1:]


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

    z = 2.0 * draw.u01() - 1.0
    azimuth = 2.0 * math.pi * draw.u01()
    r = math.sqrt(max(0.0, 1.0 - z * z))
    magnitude = draw.between(*MODEL.mag_field_ut)
    baseline = (
        magnitude * r * math.cos(azimuth),
        magnitude * r * math.sin(azimuth),
        magnitude * z,
    )

    ambient = float(
        MODEL.ambient_step_lux * draw.integer(MODEL.ambient_steps[0], MODEL.ambient_steps[1])
    )

    banks = []
    for _axis in range(3):
        n_terms = draw.integer(MODEL.sines_min, MODEL.sines_max)
        terms: list[SineTerm] = []
        seen = set()
        while len(terms) < n_terms:
            term = SineTerm(
                amplitude=draw.between(*MODEL.mag_amp_ut),
                period_s=draw.between(*MODEL.mag_period_s),
                phase=2.0 * math.pi * draw.u01(),
            )
            key = (term.amplitude, term.period_s, term.phase)
            if key in seen:  # same triple twice would collapse two sines
                continue
            seen.add(key)
            terms.append(term)
        banks.append(SineBank(tuple(terms)))

    scales = {
        "gravity": MODEL.gravity_noise_ms2,
        "linear_acceleration": MODEL.linear_accel_max_ms2 / math.sqrt(3.0),
        "gyroscope": MODEL.gyro_max_rad_s / math.sqrt(3.0),
        "orientation": math.radians(MODEL.orientation_noise_deg),
    }
    return DeviceState(
        seed=seed,
        orientation=orientation,
        mag_baseline=baseline,
        mag_banks=tuple(banks),
        ambient_lux=ambient,
        noise_scales=scales,
    )


def _noise_uniforms(seed: FarbleSeed, label: str, t_ms: float, n: int) -> list[float]:
    """Up to four keyed uniforms bound to (seed, label, t)."""
    digest = hashlib.sha256(
        seed.value + b"noise/" + label.encode("ascii") + struct.pack("<d", t_ms)
    ).digest()
    out = []
    for k in range(n):
        u = struct.unpack_from("<Q", digest, 8 * k)[0]
        out.append((u >> 11) * 2.0**-53)
    return out


def _noise_vec(state: DeviceState, label: str, t_ms: float, scale: float) -> tuple:
    u = _noise_uniforms(state.seed, label, t_ms, 3)
    return tuple(scale * (2.0 * v - 1.0) for v in u)


def _gravity_device(state: DeviceState, t_ms: float) -> tuple:
    base = rotate_world_to_device(state.orientation, (0.0, 0.0, -GRAVITY_MS2))
    noise = _noise_vec(state, "gravity", t_ms, state.noise_scales["gravity"])
    return tuple(b + n for b, n in zip(base, noise))


def _linear_device(state: DeviceState, t_ms: float) -> tuple:
    return _noise_vec(state, "linear", t_ms, state.noise_scales["linear_acceleration"])


def _perturbed_orientation(state: DeviceState, label: str, t_ms: float) -> tuple:
    ua, ub, uc, ud = _noise_uniforms(state.seed, label, t_ms, 4)
    z = 2.0 * ua - 1.0
    azimuth = 2.0 * math.pi * ub
    r = math.sqrt(max(0.0, 1.0 - z * z))
    axis = (r * math.cos(azimuth), r * math.sin(azimuth), z)
    angle = ud * state.noise_scales["orientation"]
    half = angle / 2.0
    dq = (math.cos(half), *(math.sin(half) * c for c in axis))
    return _normalize(_quat_mul(dq, state.orientation))


def sample(
    state: DeviceState,
    kind: SensorKind | str,
    t_ms: float,
    shield_cfg: ShieldConfig | None = None,
) -> SensorReading:
    """Read the fake device at context-relative time ``t_ms``.

    Pure in (state, kind, t): every same-origin consumer sampling the
    same instant sees the identical reading.  The reported timestamp is
    the shielded context-relative time.
    """
    if not isinstance(kind, SensorKind):
        try:
            kind = SensorKind(kind)
        except ValueError:
            raise ValueError(f"unknown sensor kind: {kind!r}") from None
    if not t_ms >= 0:
        raise ValueError(f"sample time must be >= 0, got {t_ms}")

    if kind is SensorKind.MAGNETOMETER:
        t_s = t_ms / 1000.0
        value = tuple(
            base + bank.value(t_s)
            for base, bank in zip(state.mag_baseline, state.mag_banks)
        )
    elif kind is SensorKind.GRAVITY:
        value = _gravity_device(state, t_ms)
    elif kind is SensorKind.LINEAR_ACCELERATION:
        value = _linear_device(state, t_ms)
    elif kind is SensorKind.ACCELEROMETER:
        g = _gravity_device(state, t_ms)
        lin = _linear_device(state, t_ms)
        value = tuple(a + b for a, b in zip(g, lin))
    elif kind is SensorKind.GYROSCOPE:
        value = _noise_vec(state, "gyro", t_ms, state.noise_scales["gyroscope"])
    elif kind is SensorKind.ORIENTATION_ABS:
        value = _perturbed_orientation(state, "orient_abs", t_ms)
    elif kind is SensorKind.ORIENTATION_REL:
        value = _perturbed_orientation(state, "orient_rel", t_ms)
    elif kind is SensorKind.AMBIENT_LIGHT:
        value = state.ambient_lux
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown sensor kind: {kind!r}")

    timestamp = shield_timestamp(time_subseed(state.seed), t_ms, shield_cfg)
    return SensorReading(kind=kind, value=value, timestamp_ms=timestamp)
