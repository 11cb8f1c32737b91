import socket

import pytest

from webshield.keyrand import Origin, SessionKey, derive_seed

ZERO_KEY = SessionKey(bytes(32))
ORIGIN_A = Origin.parse("https://a.example")
ORIGIN_B = Origin.parse("https://b.example")


@pytest.fixture
def zero_session():
    return ZERO_KEY


@pytest.fixture
def origin_a():
    return ORIGIN_A


@pytest.fixture
def origin_b():
    return ORIGIN_B


@pytest.fixture
def canvas_seed():
    return derive_seed(ZERO_KEY, ORIGIN_A, "canvas")


@pytest.fixture
def audio_seed():
    return derive_seed(ZERO_KEY, ORIGIN_A, "audio")


@pytest.fixture
def time_seed():
    return derive_seed(ZERO_KEY, ORIGIN_A, "time")


@pytest.fixture
def sensor_seed():
    return derive_seed(ZERO_KEY, ORIGIN_A, "sensor")


@pytest.fixture
def geo_seed():
    return derive_seed(ZERO_KEY, ORIGIN_A, "geo")


MIXED_HOST = "mixed.example"


@pytest.fixture
def mixed_resolver(monkeypatch):
    """Resolve MIXED_HOST to a public and then a loopback address; other
    names go to the real resolver."""
    real = socket.getaddrinfo

    def fake(host, port, *args, **kwargs):
        if host != MIXED_HOST:
            return real(host, port, *args, **kwargs)
        return [
            (socket.AF_INET, socket.SOCK_STREAM, 6, "", (ip, port or 0))
            for ip in ("93.184.216.34", "127.0.0.1")
        ]

    monkeypatch.setattr(socket, "getaddrinfo", fake)
    return MIXED_HOST


@pytest.fixture
def ipv6_loopback():
    """``::1``, or a skip where this host cannot bind it."""
    try:
        with socket.socket(socket.AF_INET6) as sock:
            sock.bind(("::1", 0))
    except OSError as exc:
        pytest.skip(f"cannot bind ::1: {exc}")
    return "::1"
