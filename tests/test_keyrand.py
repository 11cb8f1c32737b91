"""Keyed randomness: derivation, keystream, uniforms, origin handling.

The oracle tests recompute every construction with hashlib/struct
directly so the module is checked against an independent expression of
the byte layout, not against itself.
"""

import hashlib
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webshield.keyrand import (
    FarbleSeed,
    Origin,
    SessionKey,
    block_draws,
    derive_seed,
    keystream_block,
    keystream_bytes,
    new_session_key,
    normalize_origin,
    uniform01,
    uniform_range,
)

SEED = derive_seed(SessionKey(bytes(32)), Origin.parse("https://a.example"), "canvas")


class TestSessionKey:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            SessionKey(b"short")

    def test_fresh_keys_differ(self):
        assert new_session_key().value != new_session_key().value

    def test_fresh_key_is_32_bytes(self):
        assert len(new_session_key().value) == 32

    def test_fixed_entropy_reproducible(self):
        a = SessionKey(bytes(32))
        b = SessionKey(bytes(32))
        assert a == b

    def test_hex_round_trip(self):
        key = SessionKey(bytes(range(32)))
        assert SessionKey.from_hex(key.hex()) == key

    def test_bad_hex_rejected(self):
        with pytest.raises(ValueError):
            SessionKey.from_hex("zz" * 32)
        with pytest.raises(ValueError):
            SessionKey.from_hex("ab")


class TestOriginNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("https://a.example", "https://a.example"),
            ("HTTPS://A.Example", "https://a.example"),
            ("https://a.example/", "https://a.example"),
            ("https://a.example:443", "https://a.example"),
            ("https://a.example:8443", "https://a.example:8443"),
            ("http://a.example:80/path?x=1", "http://a.example"),
            ("http://a.example:8080", "http://a.example:8080"),
            ("ws://sock.example", "ws://sock.example"),
            ("http://[::1]:8080", "http://[::1]:8080"),
            ("http://[::1]:80", "http://[::1]"),
        ],
    )
    def test_variants(self, raw, expected):
        assert normalize_origin(raw) == expected

    @pytest.mark.parametrize("bad", ["", "   ", "no-scheme.example", "https://", "https://:8080"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            normalize_origin(bad)

    def test_out_of_range_port_rejected_as_an_invalid_origin(self):
        with pytest.raises(ValueError, match=r"^invalid origin 'https://a\.example:70000': "):
            Origin.parse("https://a.example:70000")

    @given(
        scheme=st.sampled_from(["http", "https", "ws", "wss"]),
        host=st.from_regex(r"[a-zA-Z]([a-zA-Z0-9-]{0,10}[a-zA-Z0-9])?(\.[a-zA-Z]{2,6}){1,2}", fullmatch=True),
        port=st.one_of(st.none(), st.integers(min_value=1, max_value=65535)),
    )
    def test_idempotent(self, scheme, host, port):
        raw = f"{scheme}://{host}" + (f":{port}" if port else "")
        once = normalize_origin(raw)
        assert normalize_origin(once) == once

    def test_constructor_normalizes(self):
        """Built directly or through ``parse``, one origin keys one seed."""
        direct, parsed = Origin("HTTPS://A.example:443/x"), Origin.parse("https://a.example")
        assert direct == parsed
        assert direct.value == "https://a.example"
        session = SessionKey(bytes(32))
        assert derive_seed(session, direct, "canvas") == derive_seed(session, parsed, "canvas")

    @pytest.mark.parametrize("bad", ["", "  ", 5, None, b"https://a.example"])
    def test_constructor_rejects_non_string_or_empty(self, bad):
        with pytest.raises(ValueError, match="non-empty string"):
            Origin(bad)


class TestDeriveSeed:
    def test_deterministic(self, zero_session, origin_a):
        assert derive_seed(zero_session, origin_a, "canvas") == derive_seed(
            zero_session, origin_a, "canvas"
        )

    def test_origins_separate(self, zero_session, origin_a, origin_b):
        a = derive_seed(zero_session, origin_a, "canvas")
        b = derive_seed(zero_session, origin_b, "canvas")
        assert a.value != b.value

    def test_tags_separate(self, zero_session, origin_a):
        a = derive_seed(zero_session, origin_a, "canvas")
        b = derive_seed(zero_session, origin_a, "audio")
        assert a.value != b.value

    def test_sessions_separate(self, origin_a):
        a = derive_seed(SessionKey(bytes(32)), origin_a, "canvas")
        b = derive_seed(SessionKey(bytes([1]) + bytes(31)), origin_a, "canvas")
        assert a.value != b.value

    def test_nul_tag_rejected(self, zero_session, origin_a):
        with pytest.raises(ValueError):
            derive_seed(zero_session, origin_a, "can\x00vas")

    def test_empty_and_non_ascii_tags_rejected(self, zero_session, origin_a):
        with pytest.raises(ValueError):
            derive_seed(zero_session, origin_a, "")
        with pytest.raises(ValueError):
            derive_seed(zero_session, origin_a, "sensör")

    def test_hash_oracle(self, zero_session, origin_a):
        # independent computation of the documented byte layout
        expected = hashlib.sha256(
            bytes(32) + b"\x00" + b"https://a.example" + b"\x00" + b"canvas"
        ).digest()
        seed = derive_seed(zero_session, origin_a, "canvas")
        assert seed.value == expected
        assert seed.value[:4] == expected[:4]

    def test_no_collisions_over_corpus(self, zero_session):
        # (origin, tag) -> seed must be collision free across a wide corpus
        origins = [Origin.parse(f"https://site{i}.example") for i in range(50)]
        tags = ["canvas", "audio", "webgl", "mediadevices", "geo", "time", "sensor", "sensor.mag"]
        seeds = {
            derive_seed(zero_session, origin, tag).value
            for origin in origins
            for tag in tags
        }
        assert len(seeds) == len(origins) * len(tags)


class TestKeystream:
    def test_zero_length_empty(self, canvas_seed):
        assert keystream_bytes(canvas_seed, 0, 0) == b""

    def test_random_access_consistency(self, canvas_seed):
        full = keystream_bytes(canvas_seed, 0, 64)
        assert keystream_bytes(canvas_seed, 32, 32) == full[32:]
        assert keystream_bytes(canvas_seed, 7, 40) == full[7:47]

    def test_block_oracle(self, canvas_seed):
        expected = hashlib.sha256(canvas_seed.value + struct.pack("<Q", 0)).digest()
        assert keystream_bytes(canvas_seed, 0, 32) == expected
        expected1 = hashlib.sha256(canvas_seed.value + struct.pack("<Q", 1)).digest()
        assert keystream_bytes(canvas_seed, 32, 32) == expected1

    @pytest.mark.parametrize("index", [2**64, -1])
    def test_block_outside_the_counter_rejected(self, canvas_seed, index):
        with pytest.raises(ValueError, match="64-bit block counter"):
            keystream_block(canvas_seed, index)

    @pytest.mark.parametrize("index", [1.5, "3"])
    def test_block_index_that_is_not_an_int_rejected(self, canvas_seed, index):
        with pytest.raises(TypeError, match=re.escape(repr(index))):
            keystream_block(canvas_seed, index)

    def test_block_draws_decode_each_word(self, canvas_seed):
        block = keystream_block(canvas_seed, 3)
        expected = [(w >> 11) * 2.0**-53 for w in struct.unpack("<4Q", block)]
        assert list(block_draws(block)) == expected
        assert expected == [uniform01(canvas_seed, 12 + k) for k in range(4)]

    def test_negative_rejected(self, canvas_seed):
        with pytest.raises(ValueError):
            keystream_bytes(canvas_seed, -1, 4)
        with pytest.raises(ValueError):
            keystream_bytes(canvas_seed, 0, -4)

    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            FarbleSeed(b"tiny")

    @given(offset=st.integers(min_value=0, max_value=200),
           length=st.integers(min_value=0, max_value=200))
    @example(offset=0, length=64)  # whole blocks
    @example(offset=31, length=2)  # one byte each side of a block edge
    def test_reads_match_the_one_block_oracle(self, offset, length):
        blocks = range(offset // 32, (offset + length) // 32 + 1)
        expected = b"".join(keystream_block(SEED, j) for j in blocks)[offset % 32:][:length]
        assert keystream_bytes(SEED, offset, length) == expected

    def test_read_past_the_block_counter_rejected(self, canvas_seed):
        end = 32 << 64  # first byte of block 2**64
        last = hashlib.sha256(canvas_seed.value + struct.pack("<Q", 2**64 - 1)).digest()
        assert keystream_bytes(canvas_seed, end - 32, 32) == last
        for offset, length in [(end - 8, 9), (end, 1), (10**400, 8)]:
            with pytest.raises(ValueError, match="64-bit block counter"):
                keystream_bytes(canvas_seed, offset, length)


class TestUniform01:
    def test_in_unit_interval(self, canvas_seed):
        values = [uniform01(canvas_seed, i) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_deterministic(self, canvas_seed):
        assert uniform01(canvas_seed, 7) == uniform01(canvas_seed, 7)

    def test_keystream_oracle(self, canvas_seed):
        raw = keystream_bytes(canvas_seed, 0, 8)
        expected = (struct.unpack("<Q", raw)[0] >> 11) * 2.0**-53
        assert uniform01(canvas_seed, 0) == expected

    def test_negative_index_rejected(self, canvas_seed):
        with pytest.raises(ValueError):
            uniform01(canvas_seed, -1)


# Draw indices: small ones, both sides of block edges, and the last draw
# the 64-bit block counter allows.
DRAW_INDEX = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=2**20).flatmap(
        lambda k: st.sampled_from([4 * k - 1, 4 * k])),
    st.just(2**66 - 1),
)
MEMO_SEEDS = [derive_seed(SessionKey(bytes(32)), Origin.parse("https://a.example"), tag)
              for tag in ("canvas", "time", "sensor")]


class TestUniform01Memo:
    """``uniform01`` keeps the last block it hashed; no interleaving of
    seeds and indices may let one draw see another's block."""

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2), DRAW_INDEX), max_size=20))
    @example([(0, 3), (1, 3), (0, 4), (0, 3), (2, 2**66 - 1), (2, 2**66 - 4)])
    @settings(max_examples=60)
    def test_draws_match_the_keystream_oracle(self, draws):
        for which, index in draws:
            seed = MEMO_SEEDS[which]
            raw = keystream_bytes(seed, 8 * index, 8)
            assert uniform01(seed, index) == (struct.unpack("<Q", raw)[0] >> 11) * 2.0**-53

    def test_threads_sharing_the_memo_each_see_their_own_draws(self):
        import random
        import sys
        import threading

        draws = [(which, index) for which in range(3) for index in range(48)]
        oracle = {(which, index): (struct.unpack("<Q", keystream_bytes(
            MEMO_SEEDS[which], 8 * index, 8))[0] >> 11) * 2.0**-53 for which, index in draws}
        wrong, start = [], threading.Barrier(4)

        def worker(order):
            start.wait()
            for _ in range(15):
                for which, index in order:
                    if uniform01(MEMO_SEEDS[which], index) != oracle[which, index]:
                        wrong.append((which, index))

        threads = [threading.Thread(target=worker, args=(random.Random(n).sample(draws, len(draws)),))
                   for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("index", [-1, -4, 2**66, 2**70])
    def test_index_outside_the_stream_rejected(self, index):
        uniform01(SEED, 0)  # a block in the memo must not stand in for the check
        with pytest.raises(ValueError):
            uniform01(SEED, index)

    def test_last_draw_of_the_block_counter(self):
        with pytest.raises(ValueError, match="64-bit block counter"):
            uniform01(SEED, 2**66)
        assert 0.0 <= uniform01(SEED, 2**66 - 1) < 1.0


class TestUniformRange:
    def test_degenerate_range(self, canvas_seed):
        assert uniform_range(canvas_seed, 3, 5, 5) == 5

    def test_bounds(self, canvas_seed):
        values = [uniform_range(canvas_seed, i, 20, 30) for i in range(500)]
        assert all(20 <= v <= 30 for v in values)

    def test_empty_range_rejected(self, canvas_seed):
        with pytest.raises(ValueError):
            uniform_range(canvas_seed, 0, 3, 2)

    def test_histogram_uniformity(self, canvas_seed):
        # empirical run of the construction over 10k indices
        counts = [0, 0, 0, 0]
        for i in range(10_000):
            counts[uniform_range(canvas_seed, i, 0, 3)] += 1
        for c in counts:
            assert abs(c - 2500) <= 250

    @given(
        index=st.integers(min_value=0, max_value=10_000),
        lo=st.integers(min_value=-1000, max_value=1000),
        span=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=200)
    def test_always_in_range(self, index, lo, span):
        v = uniform_range(SEED, index, lo, lo + span)
        assert lo <= v <= lo + span
