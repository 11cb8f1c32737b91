"""Timestamp shielding: quantize and (by default) randomize timestamps.

Raw high-resolution timestamps leak too much: they feed
microarchitectural timers, expose per-device clock skew, and carry
behavioural biometrics.  The shield floors every timestamp to a quantum
and, unless disabled, adds keyed in-bucket noise.  The noise is a pure
function of the bucket index, so outputs stay deterministic, monotone,
and within one quantum of the input; plain rounding alone is trivially
detectable and still reveals skew.

Sensor-style timestamps get one extra step: they are rebased to the
moment their reading context was created, so no consumer can observe
absolute boot time through them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .keyrand import FarbleSeed, block_draws, keystream_block, subseed, uniform01

DEFAULT_QUANTUM_MS = 10.0


def time_subseed(seed: FarbleSeed) -> FarbleSeed:
    """Child seed for timestamp noise, chained off another domain's seed.

    Lets a component that only holds its own domain seed still route all
    of its timestamps through one consistent noise source.
    """
    return subseed(seed, b"time")


@dataclass(frozen=True)
class ShieldConfig:
    quantum_ms: float = DEFAULT_QUANTUM_MS
    randomize: bool = True

    def __post_init__(self):
        if not 0 < self.quantum_ms < math.inf:
            raise ValueError("quantum must be positive and finite")


_DEFAULT_CFG = ShieldConfig()  # built and checked once, not per timestamp


@dataclass(frozen=True)
class ContextEpoch:
    """Monotonic-clock reading at context creation; fixed for its lifetime."""

    epoch_ms: float

    @classmethod
    def now(cls) -> "ContextEpoch":
        return cls(time.monotonic() * 1000.0)


def _bucket_overflow(t_ms: float, cfg: ShieldConfig) -> ValueError:
    return ValueError(f"timestamp {t_ms} over quantum {cfg.quantum_ms} overflows the bucket index")


def shield_timestamp(seed: FarbleSeed, t_ms: float, cfg: ShieldConfig | None = None) -> float:
    """Shield one timestamp (milliseconds).

    b = floor(t / quantum); output is b*quantum, plus u(b)*quantum when
    randomizing, where u(b) is the keyed uniform for bucket b.  Noise is
    constant within a bucket, so t1 <= t2 implies out1 <= out2 and
    |out - t| stays below one quantum.
    """
    cfg = cfg or _DEFAULT_CFG
    if not 0 <= t_ms < math.inf:
        raise ValueError(f"timestamp must be finite and >= 0, got {t_ms}")
    try:
        bucket = int(t_ms // cfg.quantum_ms)
    except OverflowError:
        raise _bucket_overflow(t_ms, cfg) from None
    shielded = bucket * cfg.quantum_ms
    if cfg.randomize:
        shielded += uniform01(seed, bucket) * cfg.quantum_ms
    if shielded == math.inf:  # the noise pushed the top bucket past the float range
        raise _bucket_overflow(t_ms, cfg)
    return shielded


def shield_stream(
    seed: FarbleSeed, timestamps: Iterable[float], cfg: ShieldConfig | None = None
) -> Iterator[float]:
    """Shield a stream of timestamps, reusing the bucket noise between
    consecutive values that fall in the same bucket.

    The noise is ``uniform01(seed, bucket)``, read straight from the
    keystream: four buckets share a block, whose draws are decoded once.
    Like ``shield_timestamp``, raises ValueError when a shielded value
    would overflow the float range.
    """
    cfg = cfg or _DEFAULT_CFG
    q = cfg.quantum_ms
    last_bucket = last_block = None  # so the first timestamp hashes its block
    inf = math.inf  # a local: this check runs once per timestamp
    for t_ms in timestamps:
        if not 0 <= t_ms < inf:
            raise ValueError(f"timestamp must be finite and >= 0, got {t_ms}")
        try:
            bucket = int(t_ms // q)
        except OverflowError:
            raise _bucket_overflow(t_ms, cfg) from None
        if bucket != last_bucket:
            last_bucket = bucket
            shielded = bucket * q
            if cfg.randomize:
                if bucket >> 2 != last_block:
                    last_block = bucket >> 2
                    draws = block_draws(keystream_block(seed, last_block))
                shielded += draws[bucket & 3] * q
            if shielded == inf:
                raise _bucket_overflow(t_ms, cfg)
        yield shielded


def sensor_timestamp(
    seed: FarbleSeed,
    epoch: ContextEpoch,
    raw_monotonic_ms: float,
    cfg: ShieldConfig | None = None,
) -> float:
    """Rebase a monotonic reading to its context epoch, then shield it.

    The subtraction cancels any absolute clock origin, so two devices
    with different boot times produce identical outputs for identical
    context-relative times.
    """
    if raw_monotonic_ms < epoch.epoch_ms:
        raise ValueError(
            f"raw clock {raw_monotonic_ms} precedes context epoch {epoch.epoch_ms}"
        )
    return shield_timestamp(seed, raw_monotonic_ms - epoch.epoch_ms, cfg)
