"""Protection profile tables and the action dispatch."""

import tracemalloc

import numpy as np
import pytest

from webshield.farble import AudioSamples, BitmapBuffer
from webshield.profiles import GROUPS, PROFILES, ProtectionAction, protect


class TestProfileTables:
    def test_three_profiles_shipped(self):
        assert set(PROFILES) == {"p1", "p2", "p3"}

    def test_every_profile_covers_exactly_the_groups(self):
        for profile in PROFILES.values():
            assert set(profile.actions) == set(GROUPS)

    def test_p1_little_lies_canvas(self):
        assert PROFILES["p1"].actions["canvas"] is ProtectionAction.LITTLE_LIE

    def test_p2_passes_fingerprintable_through(self):
        assert PROFILES["p2"].actions["canvas"] is ProtectionAction.PASS_THROUGH

    def test_p3_gamepad_blocked(self):
        assert PROFILES["p3"].actions["gamepad"] is ProtectionAction.BLOCK

    def test_p1_all_fingerprintable_little_lie(self):
        for group, fingerprintable in GROUPS.items():
            if fingerprintable:
                assert PROFILES["p1"].actions[group] is ProtectionAction.LITTLE_LIE

    def test_p2_all_fingerprintable_pass_through(self):
        for group, fingerprintable in GROUPS.items():
            if fingerprintable:
                assert PROFILES["p2"].actions[group] is ProtectionAction.PASS_THROUGH

    def test_p3_fingerprintable_block_or_fake(self):
        for group, fingerprintable in GROUPS.items():
            if fingerprintable:
                assert PROFILES["p3"].actions[group] in (
                    ProtectionAction.BLOCK,
                    ProtectionAction.FIXED_FAKE,
                )

    def test_timing_shielded_in_every_profile(self):
        for profile in PROFILES.values():
            assert profile.actions["timing"] is ProtectionAction.LITTLE_LIE


class TestProtect:
    def _must_not_lie(self, payload):
        pytest.fail("little lie computed outside LITTLE_LIE")

    def test_block_emits_nothing(self):
        assert protect(ProtectionAction.BLOCK, "canvas", b"real", self._must_not_lie) is None

    def test_pass_through_returns_payload(self):
        payload = object()
        assert protect(ProtectionAction.PASS_THROUGH, "geolocation", payload,
                       self._must_not_lie) is payload

    def test_little_lie_applied_to_payload(self):
        assert protect(ProtectionAction.LITTLE_LIE, "canvas", 20, lambda p: p + 1) == 21

    def test_fixed_fake_canvas_is_white_of_same_size(self):
        bitmap = BitmapBuffer(2, 1, bytes(range(8)))
        fake = protect(ProtectionAction.FIXED_FAKE, "canvas", bitmap, self._must_not_lie)
        assert fake == BitmapBuffer(2, 1, b"\xff" * 8)

    def test_fixed_fake_audio_is_silence_of_same_shape(self):
        audio = AudioSamples(8000, [[0.5, -0.5, 0.25], [1.0, 0.0, -1.0]])
        fake = protect(ProtectionAction.FIXED_FAKE, "audio", audio, self._must_not_lie)
        assert fake.sample_rate == 8000
        assert fake.channels.tolist() == [[0.0] * 3, [0.0] * 3]

    def test_fixed_fake_audio_is_positive_zero_read_only_and_not_copied(self):
        samples = np.random.default_rng(5).uniform(-1, 1, (2, 44_100))
        samples.flags.writeable = False
        audio = AudioSamples(44_100, samples)
        tracemalloc.start()
        try:
            fake = protect(ProtectionAction.FIXED_FAKE, "audio", audio, self._must_not_lie)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (fake.channels == 0.0).all() and not np.signbit(fake.channels).any()
        assert fake.channels.shape == audio.channels.shape
        assert not fake.channels.flags.writeable
        # the silence itself plus the constructor's finiteness mask, no copy
        assert peak < 1.2 * audio.channels.nbytes

    def test_fixed_fake_gpu_strings_are_generic(self):
        fake = protect(ProtectionAction.FIXED_FAKE, "webgl", None, self._must_not_lie)
        assert fake.as_dict() == {
            "vendor": "Generic Vendor",
            "renderer": "Generic Renderer",
            "unmasked_vendor": "Generic Vendor",
            "unmasked_renderer": "Generic Renderer",
        }

    def test_fixed_fake_without_a_fake_value_rejected(self):
        with pytest.raises(ValueError):
            protect(ProtectionAction.FIXED_FAKE, "sensors", None, self._must_not_lie)
