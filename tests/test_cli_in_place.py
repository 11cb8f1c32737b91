"""``farble canvas`` and ``farble audio`` farble the file's payload in
place: the same bytes as the library path, the same errors, and one
payload in memory."""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webshield.cli import main
from webshield.farble import (
    AUDIO_CHUNK_SAMPLES,
    BITMAP_CHUNK_PIXELS,
    BitmapBuffer,
    farble_audio,
    farble_bitmap,
)
from webshield.formats import read_audio, read_bitmap, write_audio, write_bitmap
from webshield.keyrand import Origin, SessionKey, derive_seed

FIXED_SESSION = "00" * 32
ORIGIN = "https://a.example"
KEYS = ["--session", FIXED_SESSION, "--origin", ORIGIN]
SESSION = SessionKey(bytes(32))
MiB = 2**20


def farble_cli(command, src, out, profile="p1"):
    return CliRunner().invoke(
        main, ["farble", command, "--in", str(src), "--out", str(out), *KEYS,
               "--profile", profile])


def write_random_bitmap(path, width, height, seed):
    data = np.random.default_rng(seed).integers(0, 256, 4 * width * height, dtype=np.uint8)
    path.write_bytes(struct.pack("<II", width, height) + data.tobytes())


def write_random_audio(path, rate, channels, frames, seed):
    """float32 samples slightly past [-1, 1], so some clamp, with -0.0
    and both ends of the range mixed in."""
    samples = np.random.default_rng(seed).uniform(-1.2, 1.2, (frames, channels)).astype("<f4")
    flat = samples.reshape(-1)
    flat[::7], flat[::11], flat[::13] = -0.0, 1.0, -1.0
    path.write_bytes(struct.pack("<III", rate, channels, frames) + samples.tobytes())


class TestSameBytesAsTheLibrary:
    """The CLI's ``--out`` is ``write_*(farble_*(read_*(in)))``."""

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(0, 300), height=st.integers(0, 300), seed=st.integers(0, 2**32))
    @example(width=0, height=0, seed=0)
    @example(width=1, height=1, seed=1)
    @example(width=0, height=7, seed=2)
    @example(width=263, height=251, seed=3)  # 66,013 pixels: two chunks
    @example(width=BITMAP_CHUNK_PIXELS + 3, height=1, seed=4)  # the last chunk ends mid-byte
    def test_canvas(self, tmp_path_factory, width, height, seed):
        tmp = tmp_path_factory.mktemp("canvas")
        write_random_bitmap(tmp / "in", width, height, seed)
        assert farble_cli("canvas", tmp / "in", tmp / "cli").exit_code == 0
        canvas_seed = derive_seed(SESSION, Origin.parse(ORIGIN), "canvas")
        write_bitmap(tmp / "lib", farble_bitmap(canvas_seed, read_bitmap(tmp / "in")))
        assert (tmp / "cli").read_bytes() == (tmp / "lib").read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(channels=st.sampled_from([1, 2, 5]), frames=st.integers(0, 3 * AUDIO_CHUNK_SAMPLES),
           seed=st.integers(0, 2**32))
    @example(channels=0, frames=0, seed=0)
    @example(channels=1, frames=1, seed=1)
    @example(channels=1, frames=AUDIO_CHUNK_SAMPLES + 1, seed=2)
    @example(channels=2, frames=AUDIO_CHUNK_SAMPLES, seed=3)
    @example(channels=5, frames=AUDIO_CHUNK_SAMPLES // 5 + 1, seed=4)  # 4 channels a chunk
    @example(channels=5, frames=2 * AUDIO_CHUNK_SAMPLES + 7, seed=5)
    def test_audio(self, tmp_path_factory, channels, frames, seed):
        tmp = tmp_path_factory.mktemp("audio")
        write_random_audio(tmp / "in", 44_100, channels, frames, seed)
        assert farble_cli("audio", tmp / "in", tmp / "cli").exit_code == 0
        audio_seed = derive_seed(SESSION, Origin.parse(ORIGIN), "audio")
        write_audio(tmp / "lib", farble_audio(audio_seed, read_audio(tmp / "in")))
        assert (tmp / "cli").read_bytes() == (tmp / "lib").read_bytes()


def traced_cli_peak(command, src, out):
    farble_cli(command, src, out)  # imports and first-use caches stay out of the trace
    tracemalloc.start()
    try:
        assert farble_cli(command, src, out).exit_code == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOnePayloadInMemory:
    """The command holds the file's payload and at most 1 MiB more: no
    working copy, float64 samples or output bytes of payload size."""

    def test_canvas(self, tmp_path):
        write_random_bitmap(tmp_path / "in", 1920, 1080, 1)
        assert traced_cli_peak("canvas", tmp_path / "in", tmp_path / "out") <= 4 * 1920 * 1080 + MiB

    def test_audio(self, tmp_path):
        frames = 10 * 44_100
        write_random_audio(tmp_path / "in", 44_100, 2, frames, 2)
        assert traced_cli_peak("audio", tmp_path / "in", tmp_path / "out") <= 4 * 2 * frames + MiB


def audio_file(rate, channels, frames, samples, tail=b""):
    return (struct.pack("<III", rate, channels, frames)
            + np.array(samples, dtype="<f4").tobytes() + tail)


NAN, INF = float("nan"), float("inf")

# (command, file bytes, the error line on stderr); {path} is the --in path
ERROR_ROWS = {
    "audio-nan": ("audio", audio_file(8000, 2, 2, [0.0, 0.5, -0.5, NAN]),
                  "channel 1 contains non-finite samples"),
    "audio-inf": ("audio", audio_file(8000, 2, 2, [INF, 0.5, -0.5, 0.25]),
                  "channel 0 contains non-finite samples"),
    "audio-minus-inf": ("audio", audio_file(8000, 3, 1, [0.0, 0.0, -INF]),
                        "channel 2 contains non-finite samples"),
    "audio-zero-rate-and-nan": ("audio", audio_file(0, 1, 1, [NAN]),
                                "sample rate must be positive"),
    "audio-short": ("audio", audio_file(8000, 2, 3, [0.0] * 5),
                    "audio payload is 20 bytes, header implies 24"),
    "audio-long": ("audio", audio_file(8000, 1, 2, [0.0] * 2, tail=b"\x00"),
                   "audio payload is longer than the 8 bytes its header implies: {path}"),
    "audio-zero-channels-with-frames": ("audio", struct.pack("<III", 8000, 0, 3),
                                        "audio header has 0 channels but 3 frames"),
    "audio-short-header": ("audio", b"\x00" * 11, "audio file too short: {path}"),
    "canvas-short": ("canvas", struct.pack("<II", 2, 2) + bytes(15),
                     "bitmap data is 15 bytes, expected 16 for 2x2 RGBA"),
    "canvas-long": ("canvas", struct.pack("<II", 1, 1) + bytes(5),
                    "bitmap payload is longer than the 4 bytes its header implies: {path}"),
    "canvas-short-header": ("canvas", b"\x00" * 7, "bitmap file too short: {path}"),
}


def feed_fifo(path, data):
    """Make ``path`` a FIFO and write ``data`` into it from a thread."""
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    return writer


class TestErrorParity:
    """Each bad file exits 1 with the library reader's message in every
    profile, before any action is announced, and writes no output."""

    @pytest.mark.parametrize("profile", ["p1", "p2", "p3"])
    @pytest.mark.parametrize("row", sorted(ERROR_ROWS))
    def test_bad_file(self, tmp_path, profile, row):
        command, data, message = ERROR_ROWS[row]
        src, out = tmp_path / "in", tmp_path / "out"
        src.write_bytes(data)
        result = farble_cli(command, src, out, profile)
        assert result.exit_code == 1
        assert result.stderr == f"Error: {message.format(path=src)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("profile", ["p1", "p2", "p3"])
    @pytest.mark.parametrize("command,data", [
        ("canvas", struct.pack("<II", 2, 3) + bytes(range(24))),
        ("audio", audio_file(8000, 2, 3, [0.5, -0.5, 0.25, 1.0, -1.0, 0.0])),
    ], ids=["canvas", "audio"])
    @pytest.mark.parametrize("tail", [b"", b"\x00"], ids=["whole", "one-byte-past"])
    def test_fifo_input(self, tmp_path, profile, command, data, tail):
        (tmp_path / "file").write_bytes(data + tail)
        from_file = farble_cli(command, tmp_path / "file", tmp_path / "out_file", profile)
        writer = feed_fifo(tmp_path / "pipe", data + tail)
        try:
            from_pipe = farble_cli(command, tmp_path / "pipe", tmp_path / "out_pipe", profile)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        if tail:
            size = len(data) - (8 if command == "canvas" else 12)
            kind = "bitmap" if command == "canvas" else "audio"
            assert from_pipe.exit_code == 1
            assert from_pipe.stderr == (f"Error: {kind} payload is longer than the {size} bytes "
                                        f"its header implies: {tmp_path / 'pipe'}\n")
            assert not (tmp_path / "out_pipe").exists()
        else:
            assert from_pipe.exit_code == from_file.exit_code == 0
            assert from_pipe.stderr == from_file.stderr
            assert (tmp_path / "out_pipe").read_bytes() == (tmp_path / "out_file").read_bytes()
