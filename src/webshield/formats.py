"""Binary file formats for media payloads exchanged with the CLI.

Bitmap file:  LE32 width || LE32 height || RGBA bytes (row-major).
Audio file:   LE32 sample_rate || LE32 channels || LE32 frames
              || float32-LE samples, frame-interleaved.
"""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

from .farble import (
    AUDIO_CHUNK_SAMPLES,
    AudioSamples,
    AudioView,
    BitmapBuffer,
    check_finite_samples,
    check_sample_rate,
)


def write_bitmap(path: str | Path, bitmap: BitmapBuffer) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack("<II", bitmap.width, bitmap.height))
        f.write(bitmap.data)


# A pipe's payload is read this many bytes at a time.
PIPE_CHUNK_BYTES = 1 << 20


def _read_payload(f, size: int, kind: str, path, writable: bool) -> bytes | bytearray:
    """The next ``size`` bytes of ``f``, or fewer if the file ends first;
    a bytearray if ``writable``, else bytes.

    A file with bytes past ``size`` is refused without reading them.
    ``f.read(n)`` allocates ``n`` bytes before it reads, so a header that
    declares more than the file holds must not size the read: a regular
    file caps it at the bytes left, and a pipe is read a chunk at a time.
    ``f`` is buffered, so its ``read(n)`` and ``readinto`` stop short only
    at the end of the file, also past the 2 GiB one system call returns.
    """
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode):
        left = min(size, max(st.st_size - f.tell(), 0))
        if writable:
            payload = bytearray(left)
            del payload[f.readinto(payload):]  # the file shrank since fstat
        else:
            payload = f.read(left)
    else:
        chunks, left = [], size
        while left and (chunk := f.read(min(left, PIPE_CHUNK_BYTES))):
            chunks.append(chunk)
            left -= len(chunk)
        payload = (bytearray() if writable else b"").join(chunks)
    if f.read(1):
        raise ValueError(f"{kind} payload is longer than the {size} bytes its header implies: "
                         f"{path}")
    return payload


def _read_bitmap(path, writable: bool) -> BitmapBuffer:
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) < 8:
            raise ValueError(f"bitmap file too short: {path}")
        width, height = struct.unpack("<II", header)
        payload = _read_payload(f, 4 * width * height, "bitmap", path, writable)
        return BitmapBuffer(width, height, payload)


def read_bitmap(path: str | Path) -> BitmapBuffer:
    return _read_bitmap(path, writable=False)


def read_bitmap_writable(path: str | Path) -> BitmapBuffer:
    """A bitmap whose ``data`` is a bytearray, for ``farble_bitmap_in_place``."""
    return _read_bitmap(path, writable=True)


def write_audio(path: str | Path, audio: AudioSamples | AudioView) -> None:
    """Write the samples as float32, frame-interleaved, a chunk of frames
    at a time.  A float32 view of an interleaved buffer is written as it
    lies, without a copy."""
    import numpy as np

    channels = audio.channels
    step = AUDIO_CHUNK_SAMPLES // max(len(channels), 1) or 1
    with open(path, "wb") as f:
        f.write(struct.pack("<III", audio.sample_rate, *channels.shape))
        for lo in range(0, channels.shape[1], step):
            f.write(np.ascontiguousarray(channels[:, lo : lo + step].T, dtype="<f4"))


def _read_audio(path, writable: bool) -> tuple:
    """The header's sample rate and a (channels, frames) float32 view of
    the file's frame-interleaved payload."""
    import numpy as np

    with open(path, "rb") as f:
        header = f.read(12)
        if len(header) < 12:
            raise ValueError(f"audio file too short: {path}")
        rate, channels, frames = struct.unpack("<III", header)
        if channels == 0 and frames != 0:
            raise ValueError(f"audio header has {channels} channels but {frames} frames")
        expected = 4 * channels * frames
        payload = _read_payload(f, expected, "audio", path, writable)
    if len(payload) != expected:
        raise ValueError(
            f"audio payload is {len(payload)} bytes, header implies {expected}"
        )
    return rate, np.frombuffer(payload, dtype="<f4").reshape(frames, channels).T


def read_audio(path: str | Path) -> AudioSamples:
    return AudioSamples(*_read_audio(path, writable=False))


def read_audio_writable(path: str | Path) -> AudioView:
    """The file's samples as a writable float32 view of its payload, for
    ``farble_audio_in_place``, checked as ``AudioSamples`` checks them."""
    rate, channels = _read_audio(path, writable=True)
    check_sample_rate(rate)
    check_finite_samples(channels)
    return AudioView(rate, channels)
