"""Protection profiles: which action each API endpoint group receives.

Three shipped profiles cover the usual stances.  P1 feeds every
fingerprintable group little lies, so readings differ per origin and
session but stay self-consistent.  P2 leaves fingerprintable groups
untouched and keeps only the security protections (timing).  P3 trades
fingerprintability for information hiding: groups either return fixed
fake values shared by every P3 user or are blocked outright.
``PROFILES[pid].actions`` is the whole table; ``protect`` carries out
one action on one payload, for the CLI and for any host that embeds
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .farble import AudioSamples, BitmapBuffer, GlStringSet

TABLE_SCHEMA_VERSION = 1  # versions the PROFILES table; ``--version`` prints it


class ProtectionAction(Enum):
    LITTLE_LIE = "little_lie"
    PASS_THROUGH = "pass_through"
    BLOCK = "block"
    FIXED_FAKE = "fixed_fake"


# group -> fingerprintable?  Timing protection is an anti-side-channel
# measure and stays active in every profile.
GROUPS = {
    "canvas": True,
    "webgl": True,
    "audio": True,
    "fonts": True,
    "navigator": True,
    "screen": True,
    "battery": True,
    "gamepad": True,
    "sensors": True,
    "geolocation": True,
    "mediadevices": True,
    "webrtc": True,
    "speech": True,
    "timing": False,
}

# P3 stance per fingerprintable group: fixed fake values where a
# plausible constant exists, hard block where none does.
_P3_ACTIONS = {
    "canvas": ProtectionAction.FIXED_FAKE,
    "webgl": ProtectionAction.FIXED_FAKE,
    "audio": ProtectionAction.FIXED_FAKE,
    "fonts": ProtectionAction.FIXED_FAKE,
    "navigator": ProtectionAction.FIXED_FAKE,
    "screen": ProtectionAction.FIXED_FAKE,
    "battery": ProtectionAction.FIXED_FAKE,
    "speech": ProtectionAction.FIXED_FAKE,
    "sensors": ProtectionAction.FIXED_FAKE,
    "gamepad": ProtectionAction.BLOCK,
    "geolocation": ProtectionAction.BLOCK,
    "mediadevices": ProtectionAction.BLOCK,
    "webrtc": ProtectionAction.BLOCK,
    "timing": ProtectionAction.LITTLE_LIE,
}


@dataclass(frozen=True)
class ProtectionProfile:
    """One profile: a total map from endpoint group to action."""

    id: str
    actions: dict


PROFILES = {
    "p1": ProtectionProfile("p1", {g: ProtectionAction.LITTLE_LIE for g in GROUPS}),
    "p2": ProtectionProfile("p2", {
        g: ProtectionAction.PASS_THROUGH if fingerprintable else ProtectionAction.LITTLE_LIE
        for g, fingerprintable in GROUPS.items()
    }),
    "p3": ProtectionProfile("p3", dict(_P3_ACTIONS)),
}


def _silence(audio: AudioSamples) -> AudioSamples:
    """+0.0 samples of the payload's shape, handed over read-only, so
    ``AudioSamples`` keeps them instead of copying."""
    import numpy as np

    zeros = np.zeros(audio.channels.shape)
    zeros.flags.writeable = False
    return AudioSamples(audio.sample_rate, zeros)


# The value FIXED_FAKE hands back, per group, shaped after the real payload:
# every P3 user reads the same white canvas, the same silence, the same GPU.
_FIXED_FAKES = {
    "canvas": lambda bitmap: BitmapBuffer(
        bitmap.width, bitmap.height, b"\xff" * (4 * bitmap.width * bitmap.height)
    ),
    "audio": _silence,
    "webgl": lambda _: GlStringSet(
        "Generic Vendor", "Generic Renderer", "Generic Vendor", "Generic Renderer"
    ),
}


def protect(action: ProtectionAction, group: str, payload, little_lie):
    """What a page reads from ``group`` under ``action``; None means nothing.

    ``payload`` is the real value, or None where the host has none to
    pass through (GPU strings, device ids).  ``little_lie(payload)``
    computes the keyed lie and runs only under LITTLE_LIE.  FIXED_FAKE
    is defined for the groups in ``_FIXED_FAKES``.
    """
    if action is ProtectionAction.BLOCK:
        return None
    if action is ProtectionAction.PASS_THROUGH:
        return payload
    if action is ProtectionAction.FIXED_FAKE:
        if group not in _FIXED_FAKES:
            raise ValueError(f"no fixed fake for group {group!r}")
        return _FIXED_FAKES[group](payload)
    return little_lie(payload)
