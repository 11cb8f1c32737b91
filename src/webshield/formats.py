"""Binary file formats for media payloads exchanged with the CLI.

Bitmap file:  LE32 width || LE32 height || RGBA bytes (row-major).
Audio file:   LE32 sample_rate || LE32 channels || LE32 frames
              || float32-LE samples, frame-interleaved.
"""

from __future__ import annotations

import struct
from pathlib import Path

from .farble import AudioSamples, BitmapBuffer


def write_bitmap(path: str | Path, bitmap: BitmapBuffer) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack("<II", bitmap.width, bitmap.height))
        f.write(bitmap.data)


def read_bitmap(path: str | Path) -> BitmapBuffer:
    with open(path, "rb", buffering=0) as f:  # unbuffered: the payload is read once
        header = f.read(8)
        if len(header) < 8:
            raise ValueError(f"bitmap file too short: {path}")
        return BitmapBuffer(*struct.unpack("<II", header), f.read())


def write_audio(path: str | Path, audio: AudioSamples) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack("<III", audio.sample_rate, *audio.channels.shape))
        f.write(audio.channels.astype("<f4").T.tobytes())  # interleaved


def read_audio(path: str | Path) -> AudioSamples:
    import numpy as np

    with open(path, "rb", buffering=0) as f:
        header = f.read(12)
        if len(header) < 12:
            raise ValueError(f"audio file too short: {path}")
        rate, channels, frames = struct.unpack("<III", header)
        if channels == 0 and frames != 0:
            raise ValueError(f"audio header has {channels} channels but {frames} frames")
        payload = f.read()
    expected = 4 * channels * frames
    if len(payload) != expected:
        raise ValueError(
            f"audio payload is {len(payload)} bytes, header implies {expected}"
        )
    interleaved = np.frombuffer(payload, dtype="<f4").reshape(frames, channels)
    return AudioSamples(rate, interleaved.T)
