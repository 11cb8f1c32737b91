"""Binary media file formats used by the CLI."""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from webshield.farble import AudioSamples, BitmapBuffer
from webshield.formats import read_audio, read_bitmap, write_audio, write_bitmap


class TestBitmapFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "img.rgba"
        bitmap = BitmapBuffer(2, 3, bytes(range(24)))
        write_bitmap(path, bitmap)
        loaded = read_bitmap(path)
        assert loaded == bitmap

    def test_header_layout(self, tmp_path):
        path = tmp_path / "img.rgba"
        write_bitmap(path, BitmapBuffer(1, 1, b"\x01\x02\x03\x04"))
        raw = path.read_bytes()
        assert raw[:8] == struct.pack("<II", 1, 1)
        assert raw[8:] == b"\x01\x02\x03\x04"

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "broken.rgba"
        path.write_bytes(b"\x01\x00")
        with pytest.raises(ValueError, match="bitmap file too short"):
            read_bitmap(path)

    def test_header_payload_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.rgba"
        path.write_bytes(struct.pack("<II", 2, 2) + b"\x00" * 7)
        with pytest.raises(ValueError):
            read_bitmap(path)


class TestAudioFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "clip.pcm"
        audio = AudioSamples(8000, [[0.0, 0.25, -0.5], [1.0, -1.0, 0.125]])
        write_audio(path, audio)
        loaded = read_audio(path)
        assert loaded.sample_rate == 8000
        assert len(loaded.channels) == 2
        for got, want in zip(loaded.channels, audio.channels):
            assert np.allclose(got, want, atol=1e-7)

    def test_interleaved_layout(self, tmp_path):
        path = tmp_path / "clip.pcm"
        write_audio(path, AudioSamples(8000, [[0.0, 1.0], [-1.0, 0.5]]))
        raw = path.read_bytes()
        assert raw[:12] == struct.pack("<III", 8000, 2, 2)
        samples = np.frombuffer(raw[12:], dtype="<f4")
        assert samples.tolist() == [0.0, -1.0, 1.0, 0.5]

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "broken.pcm"
        path.write_bytes(b"\x00" * 5)
        with pytest.raises(ValueError, match="audio file too short"):
            read_audio(path)

    def test_header_payload_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.pcm"
        path.write_bytes(struct.pack("<III", 8000, 1, 4) + b"\x00" * 8)
        with pytest.raises(ValueError):
            read_audio(path)

    def test_zero_channels_with_frames_rejected(self, tmp_path):
        # AudioSamples with no channels has no frame count to keep, so the
        # header's 5 frames would silently become 0 on the way out.
        path = tmp_path / "empty.pcm"
        path.write_bytes(struct.pack("<III", 8000, 0, 5))
        with pytest.raises(ValueError, match="0 channels but 5 frames"):
            read_audio(path)

    def test_zero_channels_zero_frames_round_trip(self, tmp_path):
        path = tmp_path / "empty.pcm"
        path.write_bytes(struct.pack("<III", 8000, 0, 0))
        write_audio(path, read_audio(path))
        assert path.read_bytes() == struct.pack("<III", 8000, 0, 0)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refused_peak(read, path, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 2**20


class TestReadMemory:
    """The readers take the header, then the payload: no slice of the
    whole file copies the payload a second time."""

    def test_bitmap_read_holds_one_payload(self, tmp_path):
        path = tmp_path / "hd.rgba"
        payload = 4 * 1920 * 1080
        path.write_bytes(struct.pack("<II", 1920, 1080) + bytes(payload))
        assert traced_peak(read_bitmap, path) <= 1.25 * payload

    def test_audio_read_holds_the_file_payload_and_its_samples(self, tmp_path):
        path = tmp_path / "clip.pcm"
        frames = 10 * 44_100
        path.write_bytes(struct.pack("<III", 44_100, 2, frames) + bytes(4 * 2 * frames))
        float32, float64 = 4 * 2 * frames, 8 * 2 * frames
        assert traced_peak(read_audio, path) <= 1.1 * (float32 + float64)

    # a 1x1 header, then a 1-channel 1-frame header, each over an 8 MiB tail
    @pytest.mark.parametrize("read,header", [
        (read_bitmap, struct.pack("<II", 1, 1)),
        (read_audio, struct.pack("<III", 8000, 1, 1)),
    ], ids=["bitmap", "audio"])
    def test_a_payload_past_its_header_is_refused_unread(self, tmp_path, read, header):
        path = tmp_path / "long"
        path.write_bytes(header + bytes(4 + 8 * MiB))
        assert refused_peak(read, path, "longer than the 4 bytes its header implies") < MiB

    @pytest.mark.parametrize("read,header,message", [
        (read_bitmap, struct.pack("<II", 65535, 65535),
         "bitmap data is 16 bytes, expected 17179344900 for 65535x65535 RGBA"),
        (read_audio, struct.pack("<III", 8000, 65535, 2**32 - 1),
         "audio payload is 16 bytes, header implies 1125882726711300"),
    ], ids=["bitmap", "audio"])
    def test_a_huge_header_over_a_short_file_is_refused(self, tmp_path, read, header, message):
        path = tmp_path / "short"
        path.write_bytes(header + bytes(16))
        assert refused_peak(read, path, message) < MiB

    @pytest.mark.parametrize("tail,error", [(b"", None), (b"\x00", "longer than the 24 bytes")])
    def test_a_bitmap_reads_through_a_pipe(self, tmp_path, tail, error):
        bitmap = BitmapBuffer(2, 3, bytes(range(24)))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as f:
                f.write(struct.pack("<II", 2, 3) + bitmap.data + tail)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            if error is None:
                assert read_bitmap(fifo) == bitmap
            else:
                with pytest.raises(ValueError, match=error):
                    read_bitmap(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
