"""Protection profile tables, endpoint routing, and the action dispatch."""

import json

import pytest

from webshield.farble import AudioSamples, BitmapBuffer
from webshield.profiles import (
    ENDPOINT_GROUPS,
    GROUPS,
    PROFILES,
    ProtectionAction,
    ProtectionProfile,
    profiles_from_json,
    profiles_to_json,
    protect,
    resolve_protection,
)


class TestProfileTables:
    def test_three_profiles_shipped(self):
        assert set(PROFILES) == {"p1", "p2", "p3"}

    def test_p1_little_lies_canvas(self):
        action = resolve_protection(PROFILES["p1"], "HTMLCanvasElement.prototype.toDataURL")
        assert action is ProtectionAction.LITTLE_LIE

    def test_p2_passes_fingerprintable_through(self):
        action = resolve_protection(PROFILES["p2"], "HTMLCanvasElement.prototype.toDataURL")
        assert action is ProtectionAction.PASS_THROUGH

    def test_p3_gamepad_blocked(self):
        action = resolve_protection(PROFILES["p3"], "Navigator.prototype.getGamepads")
        assert action is ProtectionAction.BLOCK

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


class TestResolution:
    def test_total_over_shipped_endpoints(self):
        for endpoint in ENDPOINT_GROUPS:
            for profile in PROFILES.values():
                assert isinstance(resolve_protection(profile, endpoint), ProtectionAction)

    def test_unknown_endpoint_passes_through(self):
        for profile in PROFILES.values():
            assert (
                resolve_protection(profile, "Navigator.prototype.bluetooth")
                is ProtectionAction.PASS_THROUGH
            )

    def test_every_endpoint_group_exists(self):
        assert set(ENDPOINT_GROUPS.values()) <= set(GROUPS)

    def test_incomplete_profile_rejected(self):
        with pytest.raises(ValueError):
            ProtectionProfile("px", {"canvas": ProtectionAction.BLOCK})

    def test_unknown_group_rejected(self):
        actions = dict(PROFILES["p1"].actions, nope=ProtectionAction.BLOCK)
        with pytest.raises(ValueError):
            ProtectionProfile("px", actions)


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
        assert fake.channels == [[0.0] * 3, [0.0] * 3]

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


class TestJsonRoundTrip:
    def test_round_trip(self):
        doc = profiles_to_json()
        assert set(json.loads(doc)) == {"version", "profiles"}
        loaded = profiles_from_json(doc)
        assert set(loaded) == set(PROFILES)
        for pid in PROFILES:
            assert loaded[pid].actions == PROFILES[pid].actions

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            profiles_from_json('{"version": 99, "profiles": {}}')
