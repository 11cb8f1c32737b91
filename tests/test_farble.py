"""Little-lie transforms: bitmap/audio farbling, spoofed strings and ids,
geolocation degradation.

The two-pass farbling checks use a from-scratch reimplementation built
on hashlib and per-byte bit twiddling, so the numpy implementation is
verified against independent arithmetic.
"""

import hashlib
import math
import re
import struct
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from webshield import farble, formats
from webshield.farble import (
    AudioSamples,
    BitmapBuffer,
    GeoCoordinate,
    audio_content_hash,
    degrade_geolocation,
    farble_audio,
    farble_bitmap,
    spoof_device_ids,
    spoof_gl_strings,
)
from webshield.keyrand import Origin, SessionKey, derive_seed, keystream_bytes

ZERO = SessionKey(bytes(32))
SEED_A = derive_seed(ZERO, Origin.parse("https://a.example"), "canvas")
SEED_B = derive_seed(ZERO, Origin.parse("https://b.example"), "canvas")
GEO_SEED = derive_seed(ZERO, Origin.parse("https://a.example"), "geo")


# ----------------------------------------------------------------------
# independent two-pass oracle


def oracle_mask(seed, bitmap):
    """Recompute the farbling XOR mask from scratch: hash, chain, expand
    blocks, take bits LSB-first, one per R/G/B byte."""
    content = hashlib.sha256(
        seed.value + struct.pack("<II", bitmap.width, bitmap.height) + bitmap.data
    ).digest()
    mask_key = hashlib.sha256(seed.value + content).digest()
    n_bits = 3 * bitmap.width * bitmap.height
    stream = b""
    j = 0
    while len(stream) * 8 < n_bits:
        stream += hashlib.sha256(mask_key + struct.pack("<Q", j)).digest()
        j += 1
    bits = []
    for i in range(n_bits):
        bits.append((stream[i // 8] >> (i % 8)) & 1)
    return bits


def oracle_farble(seed, bitmap):
    bits = oracle_mask(seed, bitmap)
    out = bytearray(bitmap.data)
    k = 0
    for p in range(bitmap.width * bitmap.height):
        for c in range(3):
            out[4 * p + c] ^= bits[k]
            k += 1
    return BitmapBuffer(bitmap.width, bitmap.height, bytes(out))


def white(w, h):
    return BitmapBuffer(w, h, bytes([255, 255, 255, 255]) * (w * h))


class TestFarbleBitmap:
    def test_1x1_white_lsb_only(self):
        out = farble_bitmap(SEED_A, white(1, 1))
        r, g, b, a = out.data
        assert r in (254, 255) and g in (254, 255) and b in (254, 255)
        assert a == 255

    def test_deterministic(self):
        bmp = white(8, 5)
        assert farble_bitmap(SEED_A, bmp).data == farble_bitmap(SEED_A, bmp).data

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(7)
        for w, h in [(1, 1), (3, 2), (16, 16), (5, 9)]:
            data = rng.integers(0, 256, size=4 * w * h, dtype=np.uint8).tobytes()
            bmp = BitmapBuffer(w, h, data)
            assert farble_bitmap(SEED_A, bmp).data == oracle_farble(SEED_A, bmp).data

    def test_masks_differ_for_different_content_same_size(self):
        # a probe canvas must not reveal the mask applied to another canvas
        rng = np.random.default_rng(13)
        a = BitmapBuffer(8, 8, rng.integers(0, 256, 256, dtype=np.uint8).tobytes())
        b = BitmapBuffer(8, 8, rng.integers(0, 256, 256, dtype=np.uint8).tobytes())
        mask_a = oracle_mask(SEED_A, a)
        mask_b = oracle_mask(SEED_A, b)
        assert mask_a != mask_b
        recovered_a = np.frombuffer(farble_bitmap(SEED_A, a).data, np.uint8) ^ np.frombuffer(a.data, np.uint8)
        recovered_b = np.frombuffer(farble_bitmap(SEED_A, b).data, np.uint8) ^ np.frombuffer(b.data, np.uint8)
        assert recovered_a.tolist() != recovered_b.tolist()

    def test_masks_equal_for_equal_content(self):
        bmp = white(6, 6)
        twin = white(6, 6)
        assert oracle_mask(SEED_A, bmp) == oracle_mask(SEED_A, twin)
        assert farble_bitmap(SEED_A, bmp).data == farble_bitmap(SEED_A, twin).data

    def test_origins_diverge(self):
        bmp = white(16, 16)
        assert farble_bitmap(SEED_A, bmp).data != farble_bitmap(SEED_B, bmp).data

    def test_inconsistent_buffer_rejected(self):
        with pytest.raises(ValueError):
            farble_bitmap(SEED_A, BitmapBuffer(2, 2, b"\x00" * 15))

    @pytest.mark.parametrize("w,h", [(0, 0), (0, 5), (7, 0)])
    def test_empty_bitmap_passes_through(self, w, h):
        bmp = BitmapBuffer(w, h, b"")
        assert farble_bitmap(SEED_A, bmp) == bmp

    @given(
        w=st.integers(min_value=1, max_value=12),
        h=st.integers(min_value=1, max_value=12),
        data=st.randoms(),
    )
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    def test_lsb_bound_and_alpha_property(self, w, h, data):
        raw = bytes(data.randrange(256) for _ in range(4 * w * h))
        bmp = BitmapBuffer(w, h, raw)
        out = np.frombuffer(farble_bitmap(SEED_A, bmp).data, np.uint8)
        src = np.frombuffer(raw, np.uint8)
        delta = out ^ src
        rgba = delta.reshape(-1, 4)
        assert np.all(rgba[:, :3] <= 1)  # only the LSB may flip
        assert np.all(rgba[:, 3] == 0)  # alpha untouched


def random_bitmap(w, h, seed):
    data = np.random.default_rng(seed).integers(0, 256, size=4 * w * h, dtype=np.uint8)
    return BitmapBuffer(w, h, data.tobytes())


class TestRepeatReadMemo:
    """A read that repeats the last one returns its stored result; any
    other read is farbled afresh."""

    @pytest.fixture(autouse=True)
    def cleared_memo(self, monkeypatch):
        monkeypatch.setattr(farble, "_last_read", (None, None, None))

    @pytest.fixture
    def keystream_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return keystream_bytes(*args)

        monkeypatch.setattr(farble, "keystream_bytes", counted)
        return calls

    @staticmethod
    def fresh(seed, bitmap):
        farble._last_read = (None, None, None)
        return farble_bitmap(seed, bitmap).data

    def test_second_identical_read_is_the_stored_object(self, keystream_calls):
        bmp = random_bitmap(300, 150, 1)
        first = farble_bitmap(SEED_A, bmp)
        assert keystream_calls
        keystream_calls.clear()
        twin = BitmapBuffer(300, 150, bytes(bmp.data))  # equal, not the same object
        assert farble_bitmap(SEED_A, twin) is first
        assert keystream_calls == []

    @pytest.mark.parametrize("seed,bitmap", [
        (SEED_B, random_bitmap(6, 4, 1)),  # another seed
        (SEED_A, random_bitmap(6, 4, 2)),  # other pixels of the same size
        (SEED_A, BitmapBuffer(4, 6, random_bitmap(6, 4, 1).data)),  # width and height swapped
    ], ids=["seed", "pixels", "swapped"])
    def test_a_different_read_misses(self, keystream_calls, seed, bitmap):
        farble_bitmap(SEED_A, random_bitmap(6, 4, 1))
        keystream_calls.clear()
        out = farble_bitmap(seed, bitmap).data
        assert keystream_calls
        assert out == self.fresh(seed, bitmap)

    def test_a_mutable_payload_is_not_stored(self, keystream_calls):
        data = bytearray(random_bitmap(6, 4, 1).data)
        bmp = BitmapBuffer(6, 4, data)
        farble_bitmap(SEED_A, bmp)
        data[0] ^= 0xFF  # the caller changes the pixels under the same object
        keystream_calls.clear()
        assert farble_bitmap(SEED_A, bmp).data == self.fresh(SEED_A, BitmapBuffer(6, 4, bytes(data)))
        assert keystream_calls

    @pytest.mark.parametrize("w,kept", [(512, True), (513, False)])
    def test_only_payloads_up_to_the_cap_are_kept(self, keystream_calls, w, kept):
        bmp = random_bitmap(w, 512, 3)
        assert (len(bmp.data) <= farble.REPEAT_READ_MAX_BYTES) is kept
        out = farble_bitmap(SEED_A, bmp)
        refs = weakref.ref(bmp), weakref.ref(out)
        data = bmp.data
        del bmp, out
        assert all((ref() is not None) is kept for ref in refs)
        keystream_calls.clear()
        farble_bitmap(SEED_A, BitmapBuffer(w, 512, data))
        assert (keystream_calls == []) is kept

    def test_threads_alternating_two_canvases_read_single_thread_bytes(self):
        canvases = [random_bitmap(16, 16, 4), random_bitmap(16, 16, 5)]
        expected = [self.fresh(SEED_A, c) for c in canvases]
        wrong = []

        def reader(first):
            for i in range(200):
                k = (first + i) % 2
                if farble_bitmap(SEED_A, canvases[k]).data != expected[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestFarbleAudio:
    def test_zero_buffer_stays_within_epsilon(self):
        audio = AudioSamples(44100, [[0.0] * 64])
        out = farble_audio(SEED_A, audio)
        assert np.max(np.abs(out.channels[0])) <= 1e-7

    def test_deterministic(self):
        audio = AudioSamples(44100, [[0.25] * 32, [-0.5] * 32])
        a = farble_audio(SEED_A, audio)
        b = farble_audio(SEED_A, audio)
        assert all(np.array_equal(x, y) for x, y in zip(a.channels, b.channels))

    def test_first_sample_matches_hand_computation(self):
        audio = AudioSamples(8000, [[0.0] * 8])
        # independent arithmetic: content hash, chained mask key, first u64
        h = hashlib.sha256(SEED_A.value)
        h.update(struct.pack("<III", 8000, 1, 8))
        h.update(np.zeros(8, dtype="<f4").tobytes())
        mask_key = hashlib.sha256(SEED_A.value + h.digest()).digest()
        block0 = hashlib.sha256(mask_key + struct.pack("<Q", 0)).digest()
        u = (struct.unpack("<Q", block0[:8])[0] >> 11) * 2.0**-53
        expected = max(-1.0, min(1.0, 0.0 + (u - 0.5) * 2e-7))
        assert farble_audio(SEED_A, audio).channels[0][0] == expected

    def test_clamped_to_unit_range(self):
        audio = AudioSamples(44100, [[1.0] * 16, [-1.0] * 16])
        out = farble_audio(SEED_A, audio)
        for ch in out.channels:
            assert np.all(ch <= 1.0) and np.all(ch >= -1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            farble_audio(SEED_A, AudioSamples(44100, [[0.0, float("nan")]]))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            farble_audio(SEED_A, AudioSamples(44100, [[float("inf")]]))

    def test_unequal_channels_rejected(self):
        with pytest.raises(ValueError):
            farble_audio(SEED_A, AudioSamples(44100, [[0.0, 0.0], [0.0]]))

    def test_content_coupling(self):
        # same length, different content -> different offsets
        quiet = AudioSamples(44100, [[0.0] * 16])
        loud = AudioSamples(44100, [[0.5] * 16])
        d_quiet = np.asarray(farble_audio(SEED_A, quiet).channels[0]) - 0.0
        d_loud = np.asarray(farble_audio(SEED_A, loud).channels[0]) - 0.5
        assert not np.allclose(d_quiet, d_loud)

    # Output pinned as float64: the CLI golden files hold float32, which
    # would hide a change below float32 resolution in the offsets.  The
    # 3x7 case clips at both ends (-1.0 and 1.0 are its first and last
    # samples).
    @pytest.mark.parametrize("channels,out_sha,content_hash", [
        ([[(7 * c + i - 10) / 10 for i in range(7)] for c in range(3)],
         "f7f03163f43339314fa068499ec60e5d457d420c6f82c9e762e144e1bbf55cf5",
         "e82450f25ea696f918abfef1c0a9b74fceb1dcff7ef431ae00065ca9bdd83aac"),
        ([[0.25], [-0.5]],
         "0d121ecc5a72386d0212ec2731ef0656c9c7486022091485095aa64d8f1435c5",
         "f3f567f928b5998aead066bf18ef6fed0ce0e300bbe14182ba4251386bdc6040"),
        ([],
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "c304556e442027feadc436421d6100de1aaa4b94ce1c0f1c1608092b2571e959"),
    ], ids=["3x7", "2x1", "0x0"])
    def test_golden(self, channels, out_sha, content_hash):
        audio = AudioSamples(8000, channels)
        out = farble_audio(SEED_A, audio)
        assert len(out.channels) == len(channels)
        samples = np.asarray(out.channels, dtype="<f8").tobytes()
        assert hashlib.sha256(samples).hexdigest() == out_sha
        assert audio_content_hash(SEED_A, audio).hex() == content_hash


class TestSpoofGlStrings:
    def test_deterministic(self):
        assert spoof_gl_strings(SEED_A) == spoof_gl_strings(SEED_A)

    def test_charset_and_length(self):
        strings = spoof_gl_strings(SEED_A)
        for value in strings.as_dict().values():
            assert re.fullmatch(r"[A-Za-z0-9 ]{8,32}", value)

    def test_origins_differ(self):
        a = spoof_gl_strings(SEED_A).as_dict()
        b = spoof_gl_strings(SEED_B).as_dict()
        assert any(a[k] != b[k] for k in a)


class TestSpoofDeviceIds:
    def test_count_zero(self):
        assert spoof_device_ids(SEED_A, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spoof_device_ids(SEED_A, -1)

    def test_deterministic(self):
        assert spoof_device_ids(SEED_A, 3) == spoof_device_ids(SEED_A, 3)

    def test_hundred_distinct_43_char_ids(self):
        ids = spoof_device_ids(SEED_A, 100)
        assert len(set(ids)) == 100
        for device_id in ids:
            assert len(device_id) == 43
            assert re.fullmatch(r"[A-Za-z0-9_-]{43}", device_id)

    def test_prefix_stability(self):
        assert spoof_device_ids(SEED_A, 5)[:2] == spoof_device_ids(SEED_A, 2)


def _haversine_m(a: GeoCoordinate, b: GeoCoordinate) -> float:
    r = 6_371_000.0
    p1, p2 = math.radians(a.latitude), math.radians(b.latitude)
    dp = p2 - p1
    dl = math.radians(b.longitude - a.longitude)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.asin(math.sqrt(h))


class TestDegradeGeolocation:
    def test_deterministic(self):
        c = GeoCoordinate(50.0755, 14.4378, 5.0)
        assert degrade_geolocation(GEO_SEED, c, 1000) == degrade_geolocation(GEO_SEED, c, 1000)

    def test_one_meter_precision_stays_close(self):
        c = GeoCoordinate(50.0755, 14.4378, 0.5)
        out = degrade_geolocation(GEO_SEED, c, 1.0)
        assert _haversine_m(c, out) <= 2.0

    def test_same_cell_same_output(self):
        # two points ~1 km apart, both inside one 100 km cell
        a = GeoCoordinate(10.0, 20.0, 5.0)
        b = GeoCoordinate(10.009, 20.009, 5.0)
        out_a = degrade_geolocation(GEO_SEED, a, 100_000)
        out_b = degrade_geolocation(GEO_SEED, b, 100_000)
        assert (out_a.latitude, out_a.longitude) == (out_b.latitude, out_b.longitude)

    def test_accuracy_never_better_than_precision(self):
        c = GeoCoordinate(50.0, 14.0, 3.0)
        assert degrade_geolocation(GEO_SEED, c, 500).accuracy == 500
        assert degrade_geolocation(GEO_SEED, GeoCoordinate(50.0, 14.0, 9000.0), 500).accuracy == 9000.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            degrade_geolocation(GEO_SEED, GeoCoordinate(91.0, 0.0, 1.0), 100)
        with pytest.raises(ValueError):
            degrade_geolocation(GEO_SEED, GeoCoordinate(0.0, -180.0, 1.0), 100)
        with pytest.raises(ValueError):
            degrade_geolocation(GEO_SEED, GeoCoordinate(0.0, 0.0, -1.0), 100)
        with pytest.raises(ValueError):
            degrade_geolocation(GEO_SEED, GeoCoordinate(0.0, 0.0, 1.0), 0.0)

    def test_origin_specific_anchor(self):
        geo_b = derive_seed(ZERO, Origin.parse("https://b.example"), "geo")
        c = GeoCoordinate(48.8566, 2.3522, 10.0)
        a = degrade_geolocation(GEO_SEED, c, 10_000)
        b = degrade_geolocation(geo_b, c, 10_000)
        assert (a.latitude, a.longitude) != (b.latitude, b.longitude)

    @given(
        lat=st.floats(min_value=-90.0, max_value=90.0),
        lon=st.floats(min_value=-180.0, max_value=180.0, exclude_min=True),
        precision=st.floats(min_value=1.0, max_value=200_000.0),
    )
    @settings(max_examples=300)
    def test_idempotent_and_in_range(self, lat, lon, precision):
        c = GeoCoordinate(lat, lon, 10.0)
        once = degrade_geolocation(GEO_SEED, c, precision)
        assert -90.0 <= once.latitude <= 90.0 and -180.0 < once.longitude <= 180.0
        twice = degrade_geolocation(GEO_SEED, once, precision)
        assert (twice.latitude, twice.longitude) == (once.latitude, once.longitude)


# ----------------------------------------------------------------------
# payload types check themselves


@pytest.mark.parametrize("build,message", [
    (lambda: BitmapBuffer(-1, 2, b""), "bitmap dimensions must be non-negative"),
    (lambda: BitmapBuffer(2, 2, b"\x00" * 15), "bitmap data is 15 bytes, expected 16 for 2x2 RGBA"),
    (lambda: BitmapBuffer(2**32, 0, b""), "bitmap width must be an int <= 4294967295, not 4294967296"),
    (lambda: BitmapBuffer(0, 2**32, b""), "bitmap height must be an int <= 4294967295, not 4294967296"),
    (lambda: BitmapBuffer(1.0, 1, b"\x00" * 4), "bitmap width must be an int <= 4294967295, not 1.0"),
    (lambda: BitmapBuffer(True, 1, b"\x00" * 4), "bitmap width must be an int <= 4294967295, not True"),
    (lambda: AudioSamples(2**32, [[0.0]]), "sample rate must be an int <= 4294967295, not 4294967296"),
    (lambda: AudioSamples(8000.5, [[0.0]]), "sample rate must be an int <= 4294967295, not 8000.5"),
    (lambda: AudioSamples(True, [[0.0]]), "sample rate must be an int <= 4294967295, not True"),
    (lambda: AudioSamples(8000, [[[0.1]]]), "each channel must be a flat sequence of samples"),
    (lambda: AudioSamples(0, [[0.0]]), "sample rate must be positive"),
    (lambda: AudioSamples(-8000, [[0.0]]), "sample rate must be positive"),
    (lambda: AudioSamples(44100, [[0.0, 0.0], [0.0]]), "channel 1 length 1 != 2"),
    (lambda: AudioSamples(44100, [[0.0, float("nan")]]), "channel 0 contains non-finite samples"),
    (lambda: AudioSamples(44100, [[0.0], [float("-inf")]]), "channel 1 contains non-finite samples"),
    (lambda: AudioSamples(44100, np.array([[0.0, 1.0], [0.5, np.inf], [np.nan, 0.0]])),
     "channel 1 contains non-finite samples"),
    (lambda: GeoCoordinate(91.0, 0.0, 1.0), "latitude out of range: 91.0"),
    (lambda: GeoCoordinate(0.0, -180.0, 1.0), "longitude out of range: -180.0"),
    (lambda: GeoCoordinate(0.0, 0.0, -1.0), "accuracy must be >= 0: -1.0"),
])
def test_invalid_payload_cannot_be_built(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("channels", [[], [[]], [np.zeros(0, np.float32)] * 2])
def test_zero_size_audio_comes_back_as_float64_channels(channels):
    out = farble_audio(SEED_A, AudioSamples(8000, channels))
    assert out.sample_rate == 8000 and len(out.channels) == len(channels)
    for ch in out.channels:
        assert isinstance(ch, np.ndarray) and ch.dtype == np.float64 and ch.size == 0


class TestAudioSamplesEquality:
    def test_equal_payloads_compare_equal(self):
        assert AudioSamples(8000, [[0.1, 0.2]]) == AudioSamples(8000, [[0.1, 0.2]])
        assert AudioSamples(8000, []) == AudioSamples(8000, [])

    @pytest.mark.parametrize("other", [
        AudioSamples(8000, [[0.1, 0.3]]),
        AudioSamples(16000, [[0.1, 0.2]]),
        AudioSamples(8000, [[0.1], [0.2]]),
        AudioSamples(8000, [[0.1, 0.2], [0.1, 0.2]]),
        [[0.1, 0.2]],
    ])
    def test_different_payloads_compare_unequal(self, other):
        assert AudioSamples(8000, [[0.1, 0.2]]) != other

    def test_read_back_payload_equals_its_source(self, tmp_path):
        audio = AudioSamples(8000, [[0.5, -0.25, 0.0], [1.0, -1.0, 0.125]])
        formats.write_audio(tmp_path / "a.raw", audio)
        assert formats.read_audio(tmp_path / "a.raw") == audio


class TestAudioSamplesPrivate:
    """A payload checked as finite stays as it was checked: its array is
    read-only, and a caller's writable array is not shared."""

    def test_channels_are_read_only(self):
        audio = AudioSamples(8000, [[0.1, 0.2]])
        with pytest.raises(ValueError, match="read-only"):
            audio.channels[0, 0] = float("nan")
        assert audio.channels.tolist() == [[0.1, 0.2]]

    @pytest.mark.parametrize("source", [
        np.array([[0.1, 0.2]]),  # the float64 array itself would be kept
        np.array([[0.1, 0.2, 0.3]])[:, :2],  # a view of the caller's buffer
    ])
    def test_later_writes_to_the_callers_array_do_not_reach_it(self, source):
        audio = AudioSamples(8000, source)
        source[0, 0] = float("nan")
        assert audio.channels.tolist() == [[0.1, 0.2]]

    def test_read_only_array_that_owns_its_data_is_kept(self):
        source = np.array([[0.1, 0.2]])
        source.flags.writeable = False
        assert np.shares_memory(AudioSamples(8000, source).channels, source)

    def test_farbled_and_read_payloads_are_read_only(self, tmp_path):
        audio = farble_audio(SEED_A, AudioSamples(8000, [[0.1, 0.2], [0.3, 0.4]]))
        formats.write_audio(tmp_path / "a.raw", audio)
        for payload in (audio, formats.read_audio(tmp_path / "a.raw")):
            assert not payload.channels.flags.writeable


# ----------------------------------------------------------------------
# chunked masks against the unchunked formula


def unchunked_farble_audio(seed, audio):
    """The whole-payload formula: one content hash over all samples, one
    keystream read for the whole mask."""
    channels = np.asarray(audio.channels, dtype=np.float64)
    content = hashlib.sha256(
        seed.value + struct.pack("<III", audio.sample_rate, *channels.shape)
        + channels.astype("<f4").tobytes()
    ).digest()
    mask_key = hashlib.sha256(seed.value + content).digest()
    n = channels.size
    stream = b"".join(hashlib.sha256(mask_key + struct.pack("<Q", j)).digest()
                      for j in range((8 * n + 31) // 32))[: 8 * n]
    u = (np.frombuffer(stream, dtype="<u8") >> np.uint64(11)) * 2.0**-53
    offsets = ((u - 0.5) * (2.0 * 1e-7)).reshape(channels.shape)
    return np.clip(channels + offsets, -1.0, 1.0)


class TestChunkBoundaries:
    """Tiny chunks put many chunk edges inside small payloads.  A chunk
    of 8 samples or 256 pixels is whole keystream blocks; 5 samples and
    100 pixels start chunks mid-block and, for pixels, mid-byte."""

    @pytest.mark.parametrize("chunk", [8, 5])
    @pytest.mark.parametrize("n_channels,frames", [
        (3, 7),  # channel 1 starts at sample 7, mid-block
        (2, 45),  # odd frame count, many chunks, a short last chunk
        (1, 37),
        (2, 0),
        (3, 1),
        (1, 1),
    ])
    def test_audio_matches_unchunked_formula(self, monkeypatch, chunk, n_channels, frames):
        monkeypatch.setattr(farble, "AUDIO_CHUNK_SAMPLES", chunk)
        rng = np.random.default_rng(n_channels * 1000 + frames)
        audio = AudioSamples(8000, rng.uniform(-1.0, 1.0, size=(n_channels, frames)))
        out = farble_audio(SEED_A, audio)
        assert out.channels.shape == (n_channels, frames)
        assert out.channels.tobytes() == unchunked_farble_audio(SEED_A, audio).tobytes()
        content = hashlib.sha256(
            SEED_A.value + struct.pack("<III", 8000, n_channels, frames)
            + audio.channels.astype("<f4").tobytes()).digest()
        assert audio_content_hash(SEED_A, audio) == content

    @pytest.mark.parametrize("chunk", [256, 100])
    @pytest.mark.parametrize("w,h", [
        (1, 1),
        (0, 0),
        (7, 3),  # 63 mask bits: not a whole number of bytes
        (37, 19),  # 703 pixels: several chunks, a short last one
    ])
    def test_bitmap_matches_unchunked_oracle(self, monkeypatch, chunk, w, h):
        monkeypatch.setattr(farble, "BITMAP_CHUNK_PIXELS", chunk)
        rng = np.random.default_rng(w * 100 + h)
        bmp = BitmapBuffer(w, h, rng.integers(0, 256, size=4 * w * h, dtype=np.uint8).tobytes())
        assert farble_bitmap(SEED_A, bmp).data == oracle_farble(SEED_A, bmp).data


# ----------------------------------------------------------------------
# bounded memory: the payload, the output and one chunk

MiB = 2**20


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """``tracemalloc`` sees numpy's buffers.  A whole-payload temporary
    (the full mask, its float conversions, a concatenated hash input)
    exceeds these bounds; one chunk of either transform stays well
    under 1 MiB."""

    def test_audio_holds_the_output_and_one_chunk(self):
        audio = AudioSamples(8000, np.random.default_rng(3).uniform(-1, 1, (2, 100_000)))
        out_bytes = audio.channels.nbytes  # 1.5 MiB
        assert traced_peak(farble_audio, SEED_A, audio) <= out_bytes + 3 * MiB

    def test_bitmap_holds_two_payload_copies_and_one_chunk(self):
        bmp = BitmapBuffer(512, 512, np.random.default_rng(4).integers(
            0, 256, size=4 * 512 * 512, dtype=np.uint8).tobytes())
        # the working buffer and the output's bytes: 1 MiB each
        assert traced_peak(farble_bitmap, SEED_A, bmp) <= 2 * len(bmp.data) + MiB // 2
