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

from .farble import AudioSamples, BitmapBuffer


def write_bitmap(path: str | Path, bitmap: BitmapBuffer) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack("<II", bitmap.width, bitmap.height))
        f.write(bitmap.data)


# A pipe's payload is read this many bytes at a time.
PIPE_CHUNK_BYTES = 1 << 20


def _read_payload(f, size: int, kind: str, path) -> bytes:
    """The next ``size`` bytes of ``f``, or fewer if the file ends first.

    A file with bytes past ``size`` is refused without reading them.
    ``f.read(n)`` allocates ``n`` bytes before it reads, so a header that
    declares more than the file holds must not size the read: a regular
    file caps it at the bytes left, and a pipe is read a chunk at a time.
    ``f`` is buffered, so its ``read(n)`` stops short of ``n`` only at the
    end of the file, also past the 2 GiB one system call returns.
    """
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode):
        payload = f.read(min(size, max(st.st_size - f.tell(), 0)))
    else:
        chunks, left = [], size
        while left and (chunk := f.read(min(left, PIPE_CHUNK_BYTES))):
            chunks.append(chunk)
            left -= len(chunk)
        payload = b"".join(chunks)
    if f.read(1):
        raise ValueError(f"{kind} payload is longer than the {size} bytes its header implies: "
                         f"{path}")
    return payload


def read_bitmap(path: str | Path) -> BitmapBuffer:
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) < 8:
            raise ValueError(f"bitmap file too short: {path}")
        width, height = struct.unpack("<II", header)
        return BitmapBuffer(width, height, _read_payload(f, 4 * width * height, "bitmap", path))


def write_audio(path: str | Path, audio: AudioSamples) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack("<III", audio.sample_rate, *audio.channels.shape))
        f.write(audio.channels.astype("<f4").T.tobytes())  # interleaved


def read_audio(path: str | Path) -> AudioSamples:
    import numpy as np

    with open(path, "rb") as f:
        header = f.read(12)
        if len(header) < 12:
            raise ValueError(f"audio file too short: {path}")
        rate, channels, frames = struct.unpack("<III", header)
        if channels == 0 and frames != 0:
            raise ValueError(f"audio header has {channels} channels but {frames} frames")
        expected = 4 * channels * frames
        payload = _read_payload(f, expected, "audio", path)
    if len(payload) != expected:
        raise ValueError(
            f"audio payload is {len(payload)} bytes, header implies {expected}"
        )
    interleaved = np.frombuffer(payload, dtype="<f4").reshape(frames, channels)
    return AudioSamples(rate, interleaved.T)
