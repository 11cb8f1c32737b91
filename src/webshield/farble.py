"""Little-lie transforms for readable browser surfaces.

Each transform perturbs what a page script would read back (canvas
pixels, audio samples, GPU strings, device identifiers, coordinates)
just enough that fingerprints diverge across origins and sessions,
while staying deterministic for one seed so repeated reads agree.

Canvas and audio use a two-pass scheme: the first pass hashes the full
payload, the second derives the perturbation mask from that hash.  The
mask therefore depends on content as well as seed, so equal payloads are
modified identically while different payloads of the same size get
unrelated masks.  A probe canvas cannot recover the mask applied to a
sibling canvas and undo it.
"""

from __future__ import annotations

import base64
import hashlib
import math
import struct
from dataclasses import dataclass

from .keyrand import FarbleSeed, keystream_bytes, uniform01, uniform_range

# Audio perturbation amplitude: inaudible, above float32 quantization at
# unit scale only marginally, below human ABX thresholds by orders of
# magnitude.
AUDIO_EPSILON = 1e-7

GL_CHARSET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 "
GL_MIN_LEN, GL_MAX_LEN = 8, 32

DEVICE_ID_BYTES = 32  # 43 chars of unpadded base64url
MAX_DEVICE_IDS = 1024  # larger counts are refused, not built
# Finer geolocation grids are refused: below about 1e-300 m the grid cell
# underflows and the coordinate over it overflows the float range.
MIN_PRECISION_M = 0.001

METERS_PER_DEG_LAT = 111_320.0


@dataclass(frozen=True)
class BitmapBuffer:
    """RGBA bitmap, row-major, 4 bytes per pixel."""

    width: int
    height: int
    data: bytes

    def __post_init__(self):
        if self.width < 0 or self.height < 0:
            raise ValueError("bitmap dimensions must be non-negative")
        expected = 4 * self.width * self.height
        if len(self.data) != expected:
            raise ValueError(
                f"bitmap data is {len(self.data)} bytes, expected {expected} "
                f"for {self.width}x{self.height} RGBA"
            )


@dataclass(frozen=True)
class AudioSamples:
    """Per-channel PCM sample arrays; samples are reals in [-1, 1]."""

    sample_rate: int
    channels: list

    def frame_count(self) -> int:
        return len(self.channels[0]) if self.channels else 0

    def __post_init__(self):
        import numpy as np

        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        frames = self.frame_count()
        for i, ch in enumerate(self.channels):
            if len(ch) != frames:
                raise ValueError(f"channel {i} length {len(ch)} != {frames}")
            arr = np.asarray(ch, dtype=np.float64)
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"channel {i} contains non-finite samples")


@dataclass(frozen=True)
class GlStringSet:
    """Spoofed GPU identity strings, stable per seed."""

    vendor: str
    renderer: str
    unmasked_vendor: str
    unmasked_renderer: str

    def as_dict(self) -> dict:
        return {
            "vendor": self.vendor,
            "renderer": self.renderer,
            "unmasked_vendor": self.unmasked_vendor,
            "unmasked_renderer": self.unmasked_renderer,
        }


@dataclass(frozen=True)
class GeoCoordinate:
    latitude: float
    longitude: float
    accuracy: float

    def __post_init__(self):
        if not (math.isfinite(self.latitude) and -90.0 <= self.latitude <= 90.0):
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not (math.isfinite(self.longitude) and -180.0 < self.longitude <= 180.0):
            raise ValueError(f"longitude out of range: {self.longitude}")
        if not (math.isfinite(self.accuracy) and self.accuracy >= 0.0):
            raise ValueError(f"accuracy must be >= 0: {self.accuracy}")


def _content_keystream(seed: FarbleSeed, content_hash: bytes, length: int) -> bytes:
    mask_seed = FarbleSeed(hashlib.sha256(seed.value + content_hash).digest())
    return keystream_bytes(mask_seed, 0, length)


def bitmap_content_hash(seed: FarbleSeed, bitmap: BitmapBuffer) -> bytes:
    return hashlib.sha256(
        seed.value + struct.pack("<II", bitmap.width, bitmap.height) + bitmap.data
    ).digest()


def farble_bitmap(seed: FarbleSeed, bitmap: BitmapBuffer) -> BitmapBuffer:
    """Flip a keyed selection of R/G/B least significant bits.

    Pass 1 hashes seed plus dimensions plus pixel data; pass 2 XORs each
    R, G, B byte's LSB with one bit of a keystream derived from that
    hash.  Alpha bytes pass through untouched, and no channel moves by
    more than 1.
    """
    import numpy as np

    n_pixels = bitmap.width * bitmap.height
    content_hash = bitmap_content_hash(seed, bitmap)
    n_bits = 3 * n_pixels
    stream = _content_keystream(seed, content_hash, (n_bits + 7) // 8)
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8), bitorder="little")
    arr = np.frombuffer(bitmap.data, dtype=np.uint8).copy().reshape(n_pixels, 4)
    arr[:, :3] ^= bits[:n_bits].reshape(n_pixels, 3)
    return BitmapBuffer(bitmap.width, bitmap.height, arr.tobytes())


def audio_content_hash(seed: FarbleSeed, audio: AudioSamples) -> bytes:
    """Hash over rate, channel count, frame count, then each channel's
    samples as float32-LE, channel-major."""
    import numpy as np

    frames = audio.frame_count()
    h = hashlib.sha256(seed.value)
    h.update(struct.pack("<III", audio.sample_rate, len(audio.channels), frames))
    for ch in audio.channels:
        h.update(np.asarray(ch, dtype="<f4").tobytes())
    return h.digest()


def farble_audio(seed: FarbleSeed, audio: AudioSamples) -> AudioSamples:
    """Add a keyed sub-audible offset to every sample.

    Sample i of channel c (global index c * frames + i) moves by
    (u - 0.5) * 2 * AUDIO_EPSILON where u is the content-keyed uniform
    draw at that index; results clamp to [-1, 1].
    """
    import numpy as np

    frames = audio.frame_count()
    total = frames * len(audio.channels)
    content_hash = audio_content_hash(seed, audio)
    stream = _content_keystream(seed, content_hash, 8 * total)
    u64 = np.frombuffer(stream, dtype="<u8")
    u = (u64 >> np.uint64(11)) * 2.0**-53
    offsets = (u - 0.5) * (2.0 * AUDIO_EPSILON)
    out = []
    for c, ch in enumerate(audio.channels):
        arr = np.asarray(ch, dtype=np.float64)
        perturbed = np.clip(arr + offsets[c * frames : (c + 1) * frames], -1.0, 1.0)
        out.append(perturbed)
    return AudioSamples(audio.sample_rate, out)


def _keyed_string(seed: FarbleSeed, region: int) -> str:
    length = uniform_range(seed, region, GL_MIN_LEN, GL_MAX_LEN)
    return "".join(
        GL_CHARSET[uniform_range(seed, region + 1 + j, 0, len(GL_CHARSET) - 1)]
        for j in range(length)
    )


def spoof_gl_strings(seed: FarbleSeed) -> GlStringSet:
    """Generate the four GPU identity strings from disjoint keystream
    regions; charset [A-Za-z0-9 ], lengths 8..32."""
    return GlStringSet(*(_keyed_string(seed, 100 * k) for k in range(4)))


def validate_device_count(count: int) -> None:
    """Raise ValueError unless ``spoof_device_ids`` accepts ``count``."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count > MAX_DEVICE_IDS:
        raise ValueError(f"count must be <= {MAX_DEVICE_IDS}")


def spoof_device_ids(seed: FarbleSeed, count: int) -> list[str]:
    """Generate ``count`` distinct 43-character base64url identifiers."""
    validate_device_count(count)
    ids = []
    for k in range(count):
        raw = keystream_bytes(seed, DEVICE_ID_BYTES * k, DEVICE_ID_BYTES)
        ids.append(base64.urlsafe_b64encode(raw).decode("ascii").rstrip("="))
    return ids


def validate_geo_request(precision_m: float) -> None:
    """Raise ValueError unless ``degrade_geolocation`` accepts this precision."""
    if not (math.isfinite(precision_m) and precision_m >= MIN_PRECISION_M):
        raise ValueError(f"precision must be a finite number of meters >= {MIN_PRECISION_M}")


def degrade_geolocation(
    seed: FarbleSeed, coord: GeoCoordinate, precision_m: float
) -> GeoCoordinate:
    """Snap a coordinate to a seed-anchored grid of the given cell size.

    Latitude snaps first; the longitude cell size is then computed at the
    snapped latitude so the transform is idempotent.  The in-cell anchor
    comes from the seed, so different origins land on different grids
    instead of one globally shared truncation lattice.  Reported accuracy
    never improves past the grid size.
    """
    validate_geo_request(precision_m)

    u_lat = uniform01(seed, 0)
    u_lon = uniform01(seed, 1)

    cell_lat = precision_m / METERS_PER_DEG_LAT
    k_lat = math.floor(coord.latitude / cell_lat)
    lat = (k_lat + u_lat) * cell_lat
    lat = min(max(lat, -90.0), 90.0)

    # Longitude works in (0, 360] so the antimeridian seam never splits a cell.
    cos_lat = max(math.cos(math.radians(lat)), 1e-9)
    cell_lon = min(precision_m / (METERS_PER_DEG_LAT * cos_lat), 360.0)
    lam = coord.longitude + 180.0
    k_lon = math.floor(lam / cell_lon)
    lam_out = (k_lon + u_lon) * cell_lon
    if lam_out > 360.0 or lam_out <= 0.0:
        lam_out = 360.0
    lon = lam_out - 180.0

    return GeoCoordinate(lat, lon, max(coord.accuracy, precision_m))
