"""Network boundary decisions: keep public pages out of local networks.

A page served from the public Internet has no business steering the
browser toward loopback, RFC 1918, link-local, or unique-local targets;
that turns the browser into a port scanner or a proxy into the LAN.
Targets are classified into address tiers and a request is a boundary
crossing when it moves strictly inward:

    Public (2)  >  Private / UniqueLocal / LinkLocal (1)  >  Loopback (0)

The unspecified address (0.0.0.0, ::) is always treated as a crossing:
DNS-based blockers return it for filtered domains, so a request there is
already known-bad and blocking it with a clear reason avoids the
confusing loopback false positives those filters otherwise cause.

Two operating modes mirror what a deployment can know before sending:

* pre-resolve: the resolver is consulted first and a crossing request is
  refused before a single byte leaves.
* learn-on-reply: the first request to an unknown hostname goes through,
  the class of the address it connects to is learned, and every later
  request to that hostname is decided from the cache.  ``gate`` resolves
  before connecting, so a known hostname that now resolves elsewhere (a
  DNS rebind) is decided on the new class before any packet goes out.
"""

from __future__ import annotations

import ipaddress
import socket
import threading
from dataclasses import dataclass
from enum import Enum


class AddressClass(Enum):
    LOOPBACK = "loopback"
    PRIVATE = "private"
    LINK_LOCAL = "link_local"
    UNIQUE_LOCAL = "unique_local"
    UNSPECIFIED = "unspecified"
    PUBLIC = "public"


class NbsMode(Enum):
    PRE_RESOLVE = "preresolve"
    LEARN_ON_REPLY = "learn"


class Decision(Enum):
    ALLOW = "Allow"
    ALLOW_AND_LEARN = "AllowAndLearn"
    BLOCK = "Block"


@dataclass(frozen=True)
class BoundaryDecision:
    value: Decision
    reason: str = ""
    target: AddressClass | None = None  # class decided on; None on first contact


# First match wins; an address outside every row is public.  A v4
# address is never in a v6 network, nor the other way round.
_RANGES = [
    (ipaddress.ip_network("0.0.0.0/32"), AddressClass.UNSPECIFIED),
    (ipaddress.ip_network("127.0.0.0/8"), AddressClass.LOOPBACK),
    (ipaddress.ip_network("10.0.0.0/8"), AddressClass.PRIVATE),
    (ipaddress.ip_network("172.16.0.0/12"), AddressClass.PRIVATE),
    (ipaddress.ip_network("192.168.0.0/16"), AddressClass.PRIVATE),
    (ipaddress.ip_network("169.254.0.0/16"), AddressClass.LINK_LOCAL),
    (ipaddress.ip_network("::/128"), AddressClass.UNSPECIFIED),
    (ipaddress.ip_network("::1/128"), AddressClass.LOOPBACK),
    (ipaddress.ip_network("fe80::/10"), AddressClass.LINK_LOCAL),
    (ipaddress.ip_network("fc00::/7"), AddressClass.UNIQUE_LOCAL),
]

_NAT64 = ipaddress.ip_network("64:ff9b::/96")

# Depth in the boundary ordering; crossing = src deeper than dst.
# The unspecified address ranks with loopback as a source and is always
# a crossing as a destination.
_RANK = {
    AddressClass.PUBLIC: 2,
    AddressClass.PRIVATE: 1,
    AddressClass.UNIQUE_LOCAL: 1,
    AddressClass.LINK_LOCAL: 1,
    AddressClass.LOOPBACK: 0,
    AddressClass.UNSPECIFIED: 0,
}


def parse_ip(value) -> ipaddress.IPv4Address | ipaddress.IPv6Address:
    try:
        ip = ipaddress.ip_address(value)
    except ValueError as exc:
        raise ValueError(f"malformed IP address: {value!r}") from exc
    # v6 addresses that embed a v4 address classify as that address:
    # v4-mapped (::ffff:0:0/96), NAT64 (RFC 6052) and 6to4 (RFC 3056)
    if isinstance(ip, ipaddress.IPv6Address):
        if ip.ipv4_mapped is not None:
            return ip.ipv4_mapped
        if ip in _NAT64:
            return ipaddress.IPv4Address(int(ip) & 0xFFFFFFFF)
        if ip.sixtofour is not None:
            return ip.sixtofour
    return ip


def classify_address(value) -> AddressClass:
    """Classify a syntactically valid IPv4/IPv6 address into its tier."""
    ip = parse_ip(value)
    for network, cls in _RANGES:
        if ip in network:
            return cls
    return AddressClass.PUBLIC


def crosses_boundary(src: AddressClass, dst: AddressClass) -> bool:
    """True when a request from src to dst moves strictly inward."""
    if dst is AddressClass.UNSPECIFIED:
        return True
    return _RANK[src] > _RANK[dst]


# LearnCache holds at most this many hostnames; learning one more forgets
# the host learned first, which becomes a first contact again.
MAX_LEARNED_HOSTS = 65536


class LearnCache:
    """Hostname -> learned address class, recorded from connect targets.

    Concurrent readers are fine; writes are serialized and the last
    observation for a hostname wins.  Lookups never mutate.  Past
    ``MAX_LEARNED_HOSTS`` the oldest hostname is evicted first.
    """

    def __init__(self):
        self._entries: dict = {}
        self._lock = threading.Lock()

    def learn(self, hostname: str, cls: AddressClass) -> AddressClass | None:
        """Record ``cls``; return the class it replaced, None if new."""
        key = hostname.lower()
        with self._lock:
            replaced = self._entries.get(key)
            if replaced is None and len(self._entries) >= MAX_LEARNED_HOSTS:
                del self._entries[next(iter(self._entries))]  # dicts keep learn order
            self._entries[key] = cls
            return replaced

    def lookup(self, hostname: str) -> AddressClass | None:
        return self._entries.get(hostname.lower())

    def __len__(self) -> int:
        return len(self._entries)


def split_authority(authority: str, default_port: int) -> tuple[str, int]:
    """(host, port) of a ``host[:port]`` or ``[v6][:port]`` authority.

    ValueError unless the host is non-empty, encodes as IDNA (as the
    resolver needs: no empty label, none over 63 characters) and the port
    is 1-65535, and for a bracket left open or followed by anything but
    ``:port``; a bare IPv6 literal is rejected too, as its colons cannot
    be told from a port separator, and so is userinfo (``user@host``),
    which names no host to resolve.
    """
    if "@" in authority:
        raise ValueError(f"userinfo in request target {authority!r}")
    if authority.startswith("["):  # bracketed IPv6
        host, bracket, rest = authority[1:].partition("]")
        if not bracket or rest[:1] not in ("", ":"):
            raise ValueError(f"malformed IPv6 authority in request target {authority!r}")
        port_text = rest[1:]
    else:
        host, _, port_text = authority.partition(":")
    if not host:
        raise ValueError(f"empty host in request target {authority!r}")
    try:
        host.encode("idna")
    except UnicodeError:
        raise ValueError(f"host is not a valid DNS name in request target {authority!r}") from None
    if not port_text:
        return host, default_port
    if not (port_text.isascii() and port_text.isdigit() and 0 < int(port_text) < 65536):
        raise ValueError(f"bad port in request target {authority!r}")
    return host, int(port_text)


def _literal_ip(host: str):
    candidate = host.strip("[]")
    try:
        return parse_ip(candidate)
    except ValueError:
        return None


def _block_reason(origin: AddressClass, target: AddressClass, host: str) -> str:
    if target is AddressClass.UNSPECIFIED:
        return (
            f"target {host!r} resolves to the unspecified address "
            f"({origin.value} origin); typical of DNS-based blocklist filtering"
        )
    return (
        f"request from {origin.value} origin would cross the network boundary "
        f"into {target.value} target {host!r}"
    )


def decide(
    mode: NbsMode,
    origin_class: AddressClass,
    target_host: str,
    resolved=None,
    cache: LearnCache | None = None,
) -> BoundaryDecision:
    """Decide one request. Pure in its arguments.

    pre-resolve requires the resolved address (resolver consulted before
    anything is sent); learn-on-reply decides literal IPs directly, uses
    the cache for known hostnames, and lets first contacts through to be
    learned.
    """
    learned = ""
    if mode is NbsMode.PRE_RESOLVE:
        if resolved is None:
            raise ValueError(
                f"pre-resolve mode needs a resolved address for {target_host!r}"
            )
        target = classify_address(resolved)
    elif (literal := _literal_ip(target_host)) is not None:
        target = classify_address(literal)
    else:
        target = cache.lookup(target_host) if cache is not None else None
        learned = "learned "
    if target is None:
        return BoundaryDecision(
            Decision.ALLOW_AND_LEARN,
            f"first contact with {target_host!r}; the class of the address it connects to "
            "is learned before the connect",
        )
    if crosses_boundary(origin_class, target):
        return BoundaryDecision(
            Decision.BLOCK, _block_reason(origin_class, target, target_host), target
        )
    return BoundaryDecision(
        Decision.ALLOW,
        f"{origin_class.value} -> {learned}{target.value}: no crossing",
        target,
    )


def gate(
    mode: NbsMode,
    origin_class: AddressClass,
    host: str,
    port: int,
    cache: LearnCache,
) -> tuple[BoundaryDecision, tuple | None]:
    """Decide a request to ``host:port`` and name the address to connect to.

    Both modes consult the resolver (IPv4 first) and connect to the first
    address it returns.  Pre-resolve decides every address: one crossing
    address blocks the request, else the first address's decision
    stands.  Learn-on-reply decides by literal or cache, blocking before
    any lookup, then learns the first address's class when it differs
    from the one decided on.  It decides again when the host was known
    (a rebind) or when another request learned it first, so each
    hostname gets exactly one learning request, whose reason names the
    class learned and whether it crosses the boundary.  A blocked request
    gets no address.  Raises OSError when the resolver fails.
    """
    learning = mode is NbsMode.LEARN_ON_REPLY
    if learning:
        decision = decide(mode, origin_class, host, None, cache)
        if decision.value is Decision.BLOCK:
            return decision, None
    infos = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)
    # prefer IPv4 so loopback targets resolve to 127.0.0.1 deterministically
    infos.sort(key=lambda info: info[0] != socket.AF_INET)
    address = infos[0][4][:2]
    if not learning:
        first = None
        for info in infos:
            decision = decide(mode, origin_class, host, info[4][0])
            if decision.value is Decision.BLOCK:
                return decision, None
            first = first or decision
        return first, address
    peer = classify_address(address[0])
    if peer is not decision.target:
        replaced = cache.learn(host, peer)
        if decision.target is not None or replaced is not None:
            decision = decide(mode, origin_class, host, None, cache)
    if decision.value is Decision.ALLOW_AND_LEARN:
        crossing = (", which crosses the boundary: this one request passes"
                    if crosses_boundary(origin_class, peer) else ": no crossing")
        decision = BoundaryDecision(Decision.ALLOW_AND_LEARN, f"first contact with {host!r}; "
                                    f"learned {peer.value} before the connect{crossing}")
    return decision, None if decision.value is Decision.BLOCK else address
