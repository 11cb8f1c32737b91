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
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ValueError(f"bitmap file too short: {path}")
    width, height = struct.unpack_from("<II", raw)
    return BitmapBuffer(width, height, raw[8:])


def write_audio(path: str | Path, audio: AudioSamples) -> None:
    import numpy as np

    frames = audio.frame_count()
    arr = np.asarray(audio.channels, dtype=np.float32).reshape(len(audio.channels), frames)
    with open(path, "wb") as f:
        f.write(struct.pack("<III", audio.sample_rate, len(audio.channels), frames))
        f.write(arr.T.tobytes())  # interleaved


def read_audio(path: str | Path) -> AudioSamples:
    import numpy as np

    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ValueError(f"audio file too short: {path}")
    rate, channels, frames = struct.unpack_from("<III", raw)
    if channels == 0 and frames != 0:
        raise ValueError(f"audio header has {channels} channels but {frames} frames")
    payload = raw[12:]
    expected = 4 * channels * frames
    if len(payload) != expected:
        raise ValueError(
            f"audio payload is {len(payload)} bytes, header implies {expected}"
        )
    interleaved = np.frombuffer(payload, dtype="<f4").reshape(frames, channels)
    return AudioSamples(rate, [interleaved[:, c].astype(np.float64) for c in range(channels)])
