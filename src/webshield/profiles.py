"""Protection profiles: which action each API endpoint group receives.

Three shipped profiles cover the usual stances.  P1 feeds every
fingerprintable group little lies, so readings differ per origin and
session but stay self-consistent.  P2 leaves fingerprintable groups
untouched and keeps only the security protections (timing).  P3 trades
fingerprintability for information hiding: groups either return fixed
fake values shared by every P3 user or are blocked outright.
``protect`` carries out one action on one payload, for the CLI and for
any host that embeds the engine.

The endpoint catalog is a representative selection of commonly wrapped
read surfaces, not an exhaustive API inventory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .farble import AudioSamples, BitmapBuffer, GlStringSet

TABLE_SCHEMA_VERSION = 1


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

ENDPOINT_GROUPS = {
    "HTMLCanvasElement.prototype.toDataURL": "canvas",
    "HTMLCanvasElement.prototype.toBlob": "canvas",
    "OffscreenCanvas.prototype.convertToBlob": "canvas",
    "CanvasRenderingContext2D.prototype.getImageData": "canvas",
    "WebGLRenderingContext.prototype.getParameter": "webgl",
    "WebGLRenderingContext.prototype.readPixels": "webgl",
    "WebGLRenderingContext.prototype.getSupportedExtensions": "webgl",
    "WebGL2RenderingContext.prototype.getParameter": "webgl",
    "AudioBuffer.prototype.getChannelData": "audio",
    "AnalyserNode.prototype.getFloatFrequencyData": "audio",
    "AudioBuffer.prototype.copyFromChannel": "audio",
    "OfflineAudioContext.prototype.startRendering": "audio",
    "CanvasRenderingContext2D.prototype.measureText": "fonts",
    "FontFaceSet.prototype.check": "fonts",
    "Navigator.prototype.userAgent": "navigator",
    "Navigator.prototype.platform": "navigator",
    "Navigator.prototype.language": "navigator",
    "Navigator.prototype.languages": "navigator",
    "Navigator.prototype.plugins": "navigator",
    "Navigator.prototype.mimeTypes": "navigator",
    "Navigator.prototype.hardwareConcurrency": "navigator",
    "Navigator.prototype.deviceMemory": "navigator",
    "Navigator.prototype.webdriver": "navigator",
    "Screen.prototype.width": "screen",
    "Screen.prototype.height": "screen",
    "Screen.prototype.availWidth": "screen",
    "Screen.prototype.availHeight": "screen",
    "Screen.prototype.colorDepth": "screen",
    "Window.prototype.devicePixelRatio": "screen",
    "Navigator.prototype.getBattery": "battery",
    "BatteryManager.prototype.level": "battery",
    "BatteryManager.prototype.charging": "battery",
    "Navigator.prototype.getGamepads": "gamepad",
    "Gamepad.prototype.id": "gamepad",
    "Accelerometer": "sensors",
    "Gyroscope": "sensors",
    "Magnetometer": "sensors",
    "AmbientLightSensor": "sensors",
    "Geolocation.prototype.getCurrentPosition": "geolocation",
    "Geolocation.prototype.watchPosition": "geolocation",
    "MediaDevices.prototype.enumerateDevices": "mediadevices",
    "RTCPeerConnection": "webrtc",
    "RTCPeerConnection.prototype.createDataChannel": "webrtc",
    "RTCPeerConnection.prototype.createOffer": "webrtc",
    "SpeechSynthesis.prototype.getVoices": "speech",
    "Performance.prototype.now": "timing",
    "Date.now": "timing",
    "Event.prototype.timeStamp": "timing",
    "Sensor.prototype.timestamp": "timing",
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

    def __post_init__(self) -> None:
        missing = set(GROUPS) - set(self.actions)
        if missing:
            raise ValueError(f"profile {self.id} missing groups: {sorted(missing)}")
        extra = set(self.actions) - set(GROUPS)
        if extra:
            raise ValueError(f"profile {self.id} has unknown groups: {sorted(extra)}")


def _build_profiles() -> dict:
    p1 = {g: ProtectionAction.LITTLE_LIE for g in GROUPS}
    p2 = {
        g: ProtectionAction.PASS_THROUGH if fingerprintable else ProtectionAction.LITTLE_LIE
        for g, fingerprintable in GROUPS.items()
    }
    p3 = dict(_P3_ACTIONS)
    return {
        "p1": ProtectionProfile("p1", p1),
        "p2": ProtectionProfile("p2", p2),
        "p3": ProtectionProfile("p3", p3),
    }


PROFILES = _build_profiles()

# The value FIXED_FAKE hands back, per group, shaped after the real payload:
# every P3 user reads the same white canvas, the same silence, the same GPU.
_FIXED_FAKES = {
    "canvas": lambda bitmap: BitmapBuffer(
        bitmap.width, bitmap.height, b"\xff" * (4 * bitmap.width * bitmap.height)
    ),
    "audio": lambda audio: AudioSamples(
        audio.sample_rate, [[0.0] * audio.frame_count() for _ in audio.channels]
    ),
    "webgl": lambda _: GlStringSet(
        "Generic Vendor", "Generic Renderer", "Generic Vendor", "Generic Renderer"
    ),
}


def resolve_protection(profile: ProtectionProfile, endpoint: str) -> ProtectionAction:
    """Map an endpoint to its group's action; unknown endpoints pass through."""
    group = ENDPOINT_GROUPS.get(endpoint)
    if group is None:
        return ProtectionAction.PASS_THROUGH
    return profile.actions[group]


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


def profiles_to_json() -> str:
    doc = {
        "version": TABLE_SCHEMA_VERSION,
        "profiles": {
            pid: {g: a.value for g, a in prof.actions.items()}
            for pid, prof in PROFILES.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def profiles_from_json(text: str | Path) -> dict:
    if isinstance(text, Path):
        text = text.read_text()
    doc = json.loads(text)
    if doc.get("version") != TABLE_SCHEMA_VERSION:
        raise ValueError(f"unsupported profile table version: {doc.get('version')}")
    return {
        pid: ProtectionProfile(pid, {g: ProtectionAction(a) for g, a in table.items()})
        for pid, table in doc["profiles"].items()
    }
