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
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .keyrand import FarbleSeed, keystream_bytes, subseed, uniform01, uniform_range

if TYPE_CHECKING:
    import numpy as np

# Audio perturbation amplitude: inaudible, above float32 quantization at
# unit scale only marginally, below human ABX thresholds by orders of
# magnitude.
AUDIO_EPSILON = 1e-7

# Canvas and audio masks are read and applied one chunk at a time, so a
# transform holds the payload, its output and one chunk.  256 pixels
# take 96 mask bytes and 4 samples 32, so both chunks are whole
# keystream blocks.
BITMAP_CHUNK_PIXELS = 65_536
AUDIO_CHUNK_SAMPLES = 32_768

GL_CHARSET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 "
GL_MIN_LEN, GL_MAX_LEN = 8, 32

DEVICE_ID_BYTES = 32  # 43 chars of unpadded base64url
MAX_DEVICE_IDS = 1024  # larger counts are refused, not built
# Finer geolocation grids are refused: below about 1e-300 m the grid cell
# underflows and the coordinate over it overflows the float range.
MIN_PRECISION_M = 0.001

METERS_PER_DEG_LAT = 111_320.0

# A canvas read is stored for the next call only up to this payload size:
# 512x512 RGBA and the 300x150 default canvas fit, a 1080p frame does not.
REPEAT_READ_MAX_BYTES = 1 << 20


def _check_le32_int(name: str, value) -> None:
    """Widths, heights and sample rates travel as LE32 header fields."""
    if isinstance(value, bool) or not isinstance(value, int) or value > 2**32 - 1:
        raise ValueError(f"{name} must be an int <= {2**32 - 1}, not {value!r}")


@dataclass(frozen=True)
class BitmapBuffer:
    """RGBA bitmap, row-major, 4 bytes per pixel."""

    width: int
    height: int
    data: bytes

    def __post_init__(self):
        _check_le32_int("bitmap width", self.width)
        _check_le32_int("bitmap height", self.height)
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
    """PCM samples in [-1, 1]: one read-only, C-ordered float64 array of shape
    (channels, frames) built from any sequence of equal-length channels.  An
    array the caller can still write is copied; a read-only owner is kept."""

    sample_rate: int
    channels: np.ndarray

    def __post_init__(self):
        import numpy as np

        _check_le32_int("sample rate", self.sample_rate)
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if isinstance(self.channels, np.ndarray) and self.channels.ndim == 2:
            frames = self.channels.shape[1]  # rows of equal length by construction
        else:
            frames = len(self.channels[0]) if len(self.channels) else 0
            for i, ch in enumerate(self.channels):
                if len(ch) != frames:
                    raise ValueError(f"channel {i} length {len(ch)} != {frames}")
        arr = np.asarray(self.channels, dtype=np.float64, order="C")
        if not arr.flags.owndata or (arr is self.channels and arr.flags.writeable):
            arr = arr.copy()
        if arr.ndim > 2:
            raise ValueError("each channel must be a flat sequence of samples")
        arr = arr.reshape(len(arr), frames)  # no channels: (0,) becomes (0, 0)
        if not np.isfinite(arr).all():  # a per-channel pass only to name the bad one
            bad = np.isfinite(arr).all(axis=1).argmin()
            raise ValueError(f"channel {bad} contains non-finite samples")
        arr.flags.writeable = False
        object.__setattr__(self, "channels", arr)

    def __eq__(self, other):
        import numpy as np

        if not isinstance(other, AudioSamples):
            return NotImplemented
        return self.sample_rate == other.sample_rate and np.array_equal(
            self.channels, other.channels)


@dataclass(frozen=True)
class GlStringSet:
    """Spoofed GPU identity strings, stable per seed."""

    vendor: str
    renderer: str
    unmasked_vendor: str
    unmasked_renderer: str

    def as_dict(self) -> dict:
        return asdict(self)


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


def bitmap_content_hash(seed: FarbleSeed, bitmap: BitmapBuffer) -> bytes:
    h = hashlib.sha256(seed.value)
    h.update(struct.pack("<II", bitmap.width, bitmap.height))
    h.update(bitmap.data)
    return h.digest()


# The last canvas read farbled, as (seed bytes, input, output).  One tuple
# rebinding is atomic, so threads that race here only recompute.
_last_read = (None, None, None)


def farble_bitmap(seed: FarbleSeed, bitmap: BitmapBuffer) -> BitmapBuffer:
    """Flip a keyed selection of R/G/B least significant bits.

    Pass 1 hashes seed plus dimensions plus pixel data; pass 2 XORs each
    R, G, B byte's LSB with one bit of a keystream derived from that
    hash, one chunk of pixels at a time.  Within a chunk the mask bits
    are XORed in one colour column at a time, in place, so no
    payload-sized temporary is made.  Alpha bytes pass through
    untouched, and no channel moves by more than 1.

    The output is a pure function of the seed and the bitmap, so a read
    that repeats the last one (payload at most REPEAT_READ_MAX_BYTES)
    returns the previous result object without hashing or masking again.
    """
    global _last_read
    cached_seed, cached_in, cached_out = _last_read
    if (seed.value == cached_seed
            and bitmap.width == cached_in.width and bitmap.height == cached_in.height
            and bitmap.data == cached_in.data):
        return cached_out
    import numpy as np

    n_pixels = bitmap.width * bitmap.height
    mask_seed = subseed(seed, bitmap_content_hash(seed, bitmap))
    arr = np.frombuffer(bitmap.data, dtype=np.uint8).copy().reshape(n_pixels, 4)
    for lo in range(0, n_pixels, BITMAP_CHUNK_PIXELS):
        hi = min(lo + BITMAP_CHUNK_PIXELS, n_pixels)
        first_byte, skip = divmod(3 * lo, 8)
        stream = keystream_bytes(mask_seed, first_byte, (3 * hi + 7) // 8 - first_byte)
        bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8), bitorder="little")
        mask = bits[skip : skip + 3 * (hi - lo)].reshape(hi - lo, 3)
        for c in range(3):  # three 1-D strided loops, not one of length 3
            arr[lo:hi, c] ^= mask[:, c]
    out = BitmapBuffer(bitmap.width, bitmap.height, arr.tobytes())
    if type(bitmap.data) is bytes and len(bitmap.data) <= REPEAT_READ_MAX_BYTES:
        _last_read = (seed.value, bitmap, out)  # a bytearray could change under it
    return out


def audio_content_hash(seed: FarbleSeed, audio: AudioSamples) -> bytes:
    """Hash over rate, channel count, frame count, then the samples as
    float32-LE, channel-major."""
    h = hashlib.sha256(seed.value)
    h.update(struct.pack("<III", audio.sample_rate, *audio.channels.shape))
    samples = audio.channels.reshape(-1)
    for lo in range(0, samples.size, AUDIO_CHUNK_SAMPLES):
        h.update(samples[lo : lo + AUDIO_CHUNK_SAMPLES].astype("<f4"))
    return h.digest()


def farble_audio(seed: FarbleSeed, audio: AudioSamples) -> AudioSamples:
    """Add a keyed sub-audible offset to every sample.

    Sample i of channel c (global index c * frames + i) moves by
    (u - 0.5) * 2 * AUDIO_EPSILON where u is the content-keyed uniform
    draw at that index; results clamp to [-1, 1].  The mask is read and
    applied one chunk of samples at a time.
    """
    import numpy as np

    mask_seed = subseed(seed, audio_content_hash(seed, audio))
    samples = audio.channels.reshape(-1)
    out = np.empty_like(audio.channels)
    out_samples = out.reshape(-1)
    for lo in range(0, samples.size, AUDIO_CHUNK_SAMPLES):
        hi = min(lo + AUDIO_CHUNK_SAMPLES, samples.size)
        u64 = np.frombuffer(keystream_bytes(mask_seed, 8 * lo, 8 * (hi - lo)), dtype="<u8")
        u = (u64 >> np.uint64(11)) * 2.0**-53
        offsets = (u - 0.5) * (2.0 * AUDIO_EPSILON)
        np.clip(samples[lo:hi] + offsets, -1.0, 1.0, out=out_samples[lo:hi])
    out.flags.writeable = False  # handed over, not copied
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
