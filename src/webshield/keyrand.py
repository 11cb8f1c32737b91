"""Deterministic keyed randomness with domain separation.

Every per-origin lie in the engine draws from this module: one session
secret, one normalized origin, and a short domain tag deterministically
yield a seed, and the seed yields a random-access keystream.  The same
(session, origin, tag) always produces the same bytes, while any change
to the origin or the tag produces an unrelated stream.

The constructions are plain SHA-256 in counter mode, byte-for-byte
reproducible in any language:

    seed      = SHA-256(session || 0x00 || origin || 0x00 || tag)
    block[j]  = SHA-256(seed || LE64(j))            # 32-byte blocks
    stream[i] = block[i // 32][i % 32]
    u64[k]    = LE64(stream[8k .. 8k+8])
    u01[k]    = (u64[k] >> 11) * 2**-53             # 53-bit uniform in [0,1)

Only this module builds a block (``keystream_block``: an index outside
the 64-bit block counter raises ``ValueError``) or decodes one into its
four ``u01`` draws (``block_draws``, also for timestamps and sensor noise).
"""

from __future__ import annotations

import hashlib
import operator
import os
import struct
from dataclasses import dataclass
from urllib.parse import urlsplit

SESSION_KEY_LEN = 32
SEED_LEN = 32
_BLOCK_LEN = 32

# Ports elided during origin normalization when they match the scheme.
_DEFAULT_PORTS = {"http": 80, "https": 443, "ws": 80, "wss": 443, "ftp": 21}


@dataclass(frozen=True)
class SessionKey:
    """Root secret for one engine session; 32 opaque bytes."""

    value: bytes

    def __post_init__(self):
        if not isinstance(self.value, bytes) or len(self.value) != SESSION_KEY_LEN:
            raise ValueError(f"session key must be exactly {SESSION_KEY_LEN} bytes")

    @classmethod
    def from_hex(cls, text: str) -> "SessionKey":
        try:
            raw = bytes.fromhex(text.strip())
        except ValueError as exc:
            raise ValueError(f"invalid session key hex: {text!r}") from exc
        return cls(raw)

    def hex(self) -> str:
        return self.value.hex()


@dataclass(frozen=True)
class Origin:
    """Web origin ``scheme://host[:port]`` (lowercase host, default port
    elided, no path), normalized on construction from any URL or origin."""

    value: str

    def __post_init__(self):
        object.__setattr__(self, "value", normalize_origin(self.value))

    @classmethod
    def parse(cls, raw: str) -> "Origin":
        return cls(raw)


def normalize_origin(raw: str) -> str:
    """Normalize a URL or origin string to canonical origin form.

    Idempotent: normalizing an already-normalized origin is a no-op, and
    syntactic variants of one origin (case, default port, trailing path)
    normalize identically.
    """
    if not isinstance(raw, str) or not raw.strip():
        raise ValueError("origin must be a non-empty string")
    parts = urlsplit(raw.strip())
    scheme = parts.scheme.lower()
    if not scheme:
        raise ValueError(f"origin has no scheme: {raw!r}")
    try:
        host = parts.hostname
        port = parts.port
    except ValueError as exc:
        raise ValueError(f"invalid origin {raw!r}: {exc}") from exc
    if not host:
        raise ValueError(f"origin has no host: {raw!r}")
    host = host.lower()
    if ":" in host:  # IPv6 literal, hostname strips the brackets
        host = f"[{host}]"
    if port is None or _DEFAULT_PORTS.get(scheme) == port:
        return f"{scheme}://{host}"
    return f"{scheme}://{host}:{port}"


@dataclass(frozen=True)
class FarbleSeed:
    """Per-(session, origin, domain) seed: 32 bytes, the tag already hashed in."""

    value: bytes

    def __post_init__(self):
        if not isinstance(self.value, bytes) or len(self.value) != SEED_LEN:
            raise ValueError(f"seed must be exactly {SEED_LEN} bytes")


def new_session_key() -> SessionKey:
    """Draw a fresh 32-byte session key from the OS entropy source."""
    return SessionKey(os.urandom(SESSION_KEY_LEN))


def _check_tag(tag: str) -> bytes:
    if not tag:
        raise ValueError("domain tag must be non-empty")
    if not tag.isascii():
        raise ValueError(f"domain tag must be ASCII: {tag!r}")
    encoded = tag.encode("ascii")
    if b"\x00" in encoded:
        raise ValueError("domain tag must not contain NUL (breaks domain separation)")
    return encoded


def derive_seed(session: SessionKey, origin: Origin, tag: str) -> FarbleSeed:
    """Derive the seed for one (session, origin, domain tag) triple.

    seed = SHA-256(session || 0x00 || origin || 0x00 || tag).  The NUL
    separators plus the no-NUL tag rule make the encoding injective.
    """
    tag_bytes = _check_tag(tag)
    digest = hashlib.sha256(
        session.value + b"\x00" + origin.value.encode("utf-8") + b"\x00" + tag_bytes
    ).digest()
    return FarbleSeed(digest)


def subseed(seed: FarbleSeed, label: bytes) -> FarbleSeed:
    """Chain a child seed off an existing one for an internal sub-purpose."""
    return FarbleSeed(hashlib.sha256(seed.value + label).digest())


_pack_u64 = struct.Struct("<Q").pack
_unpack_block = struct.Struct("<4Q").unpack


def keystream_block(seed: FarbleSeed, index: int) -> bytes:
    """32-byte block ``index`` of the seed's keystream.

    An index outside ``[0, 2**64)`` raises ``ValueError``, one that is not
    an integer ``TypeError``; the LE64 pack makes both checks.
    """
    try:
        counter = _pack_u64(index)
    except struct.error:
        try:
            operator.index(index)
        except TypeError:
            raise TypeError(f"keystream block index must be an int, not {index!r}") from None
        raise ValueError(f"keystream block {index} is outside the 64-bit block counter") from None
    return hashlib.sha256(seed.value + counter).digest()


def block_draws(block: bytes) -> tuple[float, float, float, float]:
    """The four ``u01`` draws of a 32-byte block, in stream order."""
    a, b, c, d = _unpack_block(block)
    return ((a >> 11) * 2.0**-53, (b >> 11) * 2.0**-53,
            (c >> 11) * 2.0**-53, (d >> 11) * 2.0**-53)


def keystream_bytes(seed: FarbleSeed, offset: int, length: int) -> bytes:
    """Random-access read of ``length`` keystream bytes starting at ``offset``.

    The seed is hashed once; each block copies that prefix state and
    hashes only its counter.
    """
    if offset < 0 or length < 0:
        raise ValueError("offset and length must be non-negative")
    if length == 0:
        return b""
    first = offset // _BLOCK_LEN
    last = (offset + length - 1) // _BLOCK_LEN
    if last >= 1 << 64:
        raise ValueError("keystream read ends past block 2**64 - 1 (64-bit block counter)")
    copy = hashlib.sha256(seed.value).copy
    blocks = []
    for j in range(first, last + 1):
        h = copy()
        h.update(_pack_u64(j))
        blocks.append(h.digest())
    start = offset % _BLOCK_LEN
    return b"".join(blocks)[start : start + length]  # a whole-stream slice copies nothing


# The draws of the last block read, as (seed bytes, block index, draws).
# One tuple rebinding is atomic, so threads that race here only rehash.
_last_draws = (None, None, None)


def uniform01(seed: FarbleSeed, index: int) -> float:
    """Deterministic uniform draw in [0, 1) with 53-bit precision.

    Draw ``index`` is ``u01[index]``: draw ``index & 3`` of block
    ``index >> 2``, whose four draws are kept for the next call.
    """
    global _last_draws
    cached_seed, cached_index, draws = _last_draws
    block_index = index >> 2
    if block_index != cached_index or seed.value != cached_seed:
        draws = block_draws(keystream_block(seed, block_index))
        _last_draws = (seed.value, block_index, draws)
    return draws[index & 3]


def uniform_range(seed: FarbleSeed, index: int, lo: int, hi: int) -> int:
    """Deterministic integer draw in the closed range [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty range: [{lo}, {hi}]")
    return min(lo + int(uniform01(seed, index) * (hi - lo + 1)), hi)
