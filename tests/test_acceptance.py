"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance and runtime budget is pinned here.
"""

import hashlib
import http.client
import ipaddress
import json
import math
import socket
import struct
import subprocess
import sys
import threading
import time
from importlib import resources

import numpy as np
import pytest

from webshield.farble import BitmapBuffer, farble_bitmap
from webshield.fpd import ApiCallEvent, FpdState, default_config, evaluate, ingest, load_trace
from webshield.keyrand import (
    FarbleSeed,
    Origin,
    SessionKey,
    derive_seed,
    keystream_bytes,
    uniform01,
)
from webshield.nbs import (
    AddressClass,
    Decision,
    LearnCache,
    NbsMode,
    classify_address,
    crosses_boundary,
    decide,
)
from webshield.sensorsim import (
    GRAVITY_MS2,
    SensorKind,
    init_device_state,
    sample,
)
from webshield.timeshield import ContextEpoch, ShieldConfig, sensor_timestamp, shield_stream

ZERO = SessionKey(bytes(32))
ORIGIN_A = Origin.parse("https://a.example")
ORIGIN_B = Origin.parse("https://b.example")


def report(number: int, description: str, started: float, budget_s: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s >= {budget_s}s"
    )
    print(f"ACCEPTANCE PASS [{number}] {description} ({elapsed:.2f}s < {budget_s:g}s)")


# ----------------------------------------------------------------------
# 1. farbling determinism & divergence


def test_criterion_1_farbling_determinism_and_divergence():
    started = time.perf_counter()
    seed_a = derive_seed(ZERO, ORIGIN_A, "canvas")
    seed_b = derive_seed(ZERO, ORIGIN_B, "canvas")
    rng = np.random.default_rng(20_240_101)
    diverged = 0
    total = 1000
    for _ in range(total):
        w = int(rng.integers(1, 65))
        h = int(rng.integers(1, 65))
        source = rng.integers(0, 256, 4 * w * h, dtype=np.uint8)
        bitmap = BitmapBuffer(w, h, source.tobytes())
        out_a = farble_bitmap(seed_a, bitmap)
        assert farble_bitmap(seed_a, bitmap).data == out_a.data  # determinism
        out_b = farble_bitmap(seed_b, bitmap)
        if out_a.data != out_b.data:
            diverged += 1
        delta = (np.frombuffer(out_a.data, np.uint8) ^ source).reshape(-1, 4)
        assert np.all(delta[:, :3] <= 1), "RGB channel moved by more than the LSB"
        assert np.all(delta[:, 3] == 0), "alpha modified"
    assert diverged >= 0.95 * total, f"only {diverged}/{total} bitmaps diverged"
    report(1, f"farbling deterministic, {diverged}/{total} cross-origin divergence", started, 10.0)


# ----------------------------------------------------------------------
# 2. mask recovery regression (independent two-pass oracle)


def _oracle_mask_bits(seed: FarbleSeed, bitmap: BitmapBuffer) -> list:
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
    return [(stream[i // 8] >> (i % 8)) & 1 for i in range(n_bits)]


def _recovered_mask(seed: FarbleSeed, bitmap: BitmapBuffer) -> bytes:
    out = np.frombuffer(farble_bitmap(seed, bitmap).data, np.uint8)
    src = np.frombuffer(bitmap.data, np.uint8)
    return (out ^ src).tobytes()


def test_criterion_2_mask_recovery_regression():
    started = time.perf_counter()
    seed = derive_seed(ZERO, ORIGIN_A, "canvas")
    rng = np.random.default_rng(51)
    for pair_index in range(100):
        w = int(rng.integers(1, 33))
        h = int(rng.integers(1, 33))
        first = BitmapBuffer(w, h, rng.integers(0, 256, 4 * w * h, dtype=np.uint8).tobytes())
        second = BitmapBuffer(w, h, rng.integers(0, 256, 4 * w * h, dtype=np.uint8).tobytes())
        if first.data == second.data:  # astronomically unlikely; keep the pair honest
            continue
        assert _recovered_mask(seed, first) != _recovered_mask(seed, second), (
            f"pair {pair_index}: same-size bitmaps with different content share a mask"
        )
        # implementation agrees with the independent oracle on both
        for bitmap in (first, second):
            oracle_bits = _oracle_mask_bits(seed, bitmap)
            recovered = np.frombuffer(_recovered_mask(seed, bitmap), np.uint8).reshape(-1, 4)
            assert recovered[:, :3].flatten().tolist() == oracle_bits
        # equal content -> equal masks
        twin = BitmapBuffer(w, h, first.data)
        assert _recovered_mask(seed, first) == _recovered_mask(seed, twin)
    report(2, "content-keyed masks: distinct per content, equal for equal content", started, 5.0)


# ----------------------------------------------------------------------
# 3. time shield


def test_criterion_3_time_shield():
    started = time.perf_counter()
    seed = derive_seed(ZERO, ORIGIN_A, "time")
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.uniform(0.0, 20.0, 1_000_000))

    noisy = np.fromiter(
        shield_stream(seed, times, ShieldConfig(10.0, True)),
        dtype=np.float64,
        count=len(times),
    )
    assert np.all(np.diff(noisy) >= 0.0), "randomized outputs not monotone"
    assert np.max(np.abs(noisy - times)) < 10.0, "randomized output strayed past one quantum"

    plain = np.fromiter(
        shield_stream(seed, times, ShieldConfig(10.0, False)),
        dtype=np.float64,
        count=len(times),
    )
    assert np.all(np.mod(plain, 10.0) == 0.0), "quantized outputs not exact multiples"
    assert np.all(np.diff(plain) >= 0.0)
    assert np.max(np.abs(plain - times)) < 10.0

    # boot independence: clock origins 1e6 ms apart, identical outputs
    offset = 1_000_000.0
    rels = np.round(rng.uniform(0.0, 1e6, 1000) * 4) / 4  # dyadic, exact under shift
    for rel in rels:
        a = sensor_timestamp(seed, ContextEpoch(0.0), float(rel))
        b = sensor_timestamp(seed, ContextEpoch(offset), offset + float(rel))
        assert a == b
    report(3, "shielded timestamps monotone, bounded, exact quantized, boot independent", started, 5.0)


# ----------------------------------------------------------------------
# 4. sensor suite


def test_criterion_4_sensor_suite():
    started = time.perf_counter()
    seed = derive_seed(ZERO, ORIGIN_A, "sensor")
    state = init_device_state(seed)

    for bank in state.mag_banks:
        assert 20 <= len(bank.terms) <= 30

    # analytic sum-of-sines oracle over 10 Hz x 600 s
    t_ms = np.arange(6000) * 100.0
    t_s = t_ms / 1000.0
    oracle = []
    for base, bank in zip(state.mag_baseline, state.mag_banks):
        amps = np.array([term.amplitude for term in bank.terms])
        periods = np.array([term.period_s for term in bank.terms])
        phases = np.array([term.phase for term in bank.terms])
        oracle.append(base + np.sum(
            amps[None, :] * np.sin(2 * np.pi * t_s[:, None] / periods[None, :] + phases[None, :]),
            axis=1,
        ))
    oracle = np.stack(oracle, axis=1)

    twin = init_device_state(seed)
    worst = 0.0
    for i, t in enumerate(t_ms):
        reading = sample(state, SensorKind.MAGNETOMETER, float(t))
        worst = max(worst, max(abs(v - o) for v, o in zip(reading.value, oracle[i])))
        assert reading == sample(twin, SensorKind.MAGNETOMETER, float(t))  # cross-tab
    assert worst <= 1e-9, f"magnetometer deviates from analytic oracle by {worst}"

    for t in [0.0, 111.0, 2_222.0, 59_999.0]:
        grav = sample(state, SensorKind.GRAVITY, t).value
        assert abs(math.sqrt(sum(c * c for c in grav)) - GRAVITY_MS2) <= 0.05
        acc = sample(state, SensorKind.ACCELEROMETER, t).value
        lin = sample(state, SensorKind.LINEAR_ACCELERATION, t).value
        for a, g, l in zip(acc, grav, lin):
            assert abs(a - (g + l)) <= 1e-6

    report(4, f"sensor model matches analytic oracle (worst {worst:.1e}), consistent across tabs", started, 10.0)


# ----------------------------------------------------------------------
# 5. FPD corpus


def test_criterion_5_fpd_corpus():
    started = time.perf_counter()
    cfg = default_config()
    corpus = sorted(
        entry.name
        for entry in resources.files("webshield.data").joinpath("fpd_corpus").iterdir()
        if entry.name.endswith(".json")
    )
    fingerprinting = [n for n in corpus if n.startswith("fp_")]
    benign = [n for n in corpus if n.startswith("benign_")]
    assert len(fingerprinting) >= 10 and len(benign) >= 10

    rng = np.random.default_rng(3)
    for name in corpus:
        text = resources.files("webshield.data").joinpath(f"fpd_corpus/{name}").read_text()
        page, events = load_trace(json.loads(text))
        state = FpdState(page=page)
        for event in events:
            ingest(state, event)
        verdict = evaluate(state, cfg)
        expected = name.startswith("fp_")
        assert verdict.detected == expected, (
            f"{name}: detected={verdict.detected} score={verdict.score}"
        )
        # permutations leave the verdict unchanged
        for _ in range(3):
            order = rng.permutation(len(events))
            shuffled = FpdState(page=page)
            for index in order:
                ingest(shuffled, events[int(index)])
            assert evaluate(shuffled, cfg) == verdict, f"{name}: permutation changed verdict"
    report(
        5,
        f"{len(fingerprinting)}/{len(fingerprinting)} fingerprinting traces detected, "
        f"0/{len(benign)} benign false positives, permutation invariant",
        started,
        5.0,
    )


# ----------------------------------------------------------------------
# 6. NBS classifier


ORACLE_RANK = {
    AddressClass.PUBLIC: 2,
    AddressClass.PRIVATE: 1,
    AddressClass.UNIQUE_LOCAL: 1,
    AddressClass.LINK_LOCAL: 1,
    AddressClass.LOOPBACK: 0,
    AddressClass.UNSPECIFIED: 0,
}

REPRESENTATIVE = {
    AddressClass.LOOPBACK: "127.0.0.1",
    AddressClass.PRIVATE: "192.168.0.10",
    AddressClass.LINK_LOCAL: "169.254.0.5",
    AddressClass.UNIQUE_LOCAL: "fdab::7",
    AddressClass.UNSPECIFIED: "0.0.0.0",
    AddressClass.PUBLIC: "203.0.113.9",
}


def test_criterion_6_nbs_classifier_and_lattice():
    started = time.perf_counter()
    ranges = [
        ("127.0.0.0/8", AddressClass.LOOPBACK),
        ("10.0.0.0/8", AddressClass.PRIVATE),
        ("172.16.0.0/12", AddressClass.PRIVATE),
        ("192.168.0.0/16", AddressClass.PRIVATE),
        ("169.254.0.0/16", AddressClass.LINK_LOCAL),
        ("fe80::/10", AddressClass.LINK_LOCAL),
        ("fc00::/7", AddressClass.UNIQUE_LOCAL),
    ]
    inside = {cls: net for net, cls in ranges}
    for net_text, expected in ranges:
        network = ipaddress.ip_network(net_text)
        assert classify_address(network[0]) is expected
        assert classify_address(network[-1]) is expected
        for neighbour in (network[0] - 1, network[-1] + 1):
            if int(neighbour) < 0:
                continue
            got = classify_address(neighbour)
            in_other_reserved = any(
                neighbour in ipaddress.ip_network(net) for net, cls in ranges if cls is got
            )
            if got is expected:
                assert neighbour in network or in_other_reserved
    # exact singletons
    assert classify_address("0.0.0.0") is AddressClass.UNSPECIFIED
    assert classify_address("::") is AddressClass.UNSPECIFIED
    assert classify_address("::1") is AddressClass.LOOPBACK
    assert classify_address("0.0.0.1") is AddressClass.PUBLIC
    assert classify_address("::2") is AddressClass.PUBLIC

    # full decide truth table: (mode, class pair, cache state)
    for src in AddressClass:
        for dst, ip in REPRESENTATIVE.items():
            crossing = dst is AddressClass.UNSPECIFIED or ORACLE_RANK[src] > ORACLE_RANK[dst]
            assert crosses_boundary(src, dst) == crossing
            expected = Decision.BLOCK if crossing else Decision.ALLOW
            assert decide(NbsMode.PRE_RESOLVE, src, "h.example", ip).value is expected
            assert decide(NbsMode.LEARN_ON_REPLY, src, ip, None, LearnCache()).value is expected
            cache = LearnCache()
            cache.learn("h.example", classify_address(ip))
            assert decide(NbsMode.LEARN_ON_REPLY, src, "h.example", None, cache).value is expected
        assert (
            decide(NbsMode.LEARN_ON_REPLY, src, "h.example", None, LearnCache()).value
            is Decision.ALLOW_AND_LEARN
        )
    report(6, "reserved-range edges classify exactly; decide matches the lattice", started, 2.0)


# ----------------------------------------------------------------------
# 7. proxy integration through the CLI


class _CountingStub:
    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.connections = 0
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            try:
                conn.settimeout(5)
                conn.recv(65536)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
            except OSError:
                pass
            finally:
                conn.close()

    def close(self):
        self.sock.close()


def _spawn_proxy(mode: str, extra=()):
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "webshield", "nbs", "proxy",
         "--listen", "127.0.0.1:0", "--mode", mode, *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    assert line.startswith("listening on "), f"unexpected proxy banner: {line!r}"
    address = line.split()[2]
    host, port = address.rsplit(":", 1)
    return process, (host, int(port))


def _through_proxy(proxy_addr, url):
    conn = http.client.HTTPConnection(*proxy_addr, timeout=10)
    try:
        conn.request("GET", url)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_criterion_7_proxy_integration():
    started = time.perf_counter()
    stub = _CountingStub()
    try:
        # pre-resolve: blocked before any byte reaches the stub
        process, addr = _spawn_proxy("preresolve")
        try:
            status, _ = _through_proxy(addr, f"http://127.0.0.1:{stub.port}/scan")
            assert status == 403
            status, _ = _through_proxy(addr, f"http://localhost:{stub.port}/scan")
            assert status == 403
            assert stub.connections == 0, "pre-resolve mode leaked a connection"
        finally:
            process.terminate()
            process.wait(timeout=10)

        # learn-on-reply: first request passes, second is blocked
        process, addr = _spawn_proxy("learn")
        try:
            status, body = _through_proxy(addr, f"http://localhost:{stub.port}/one")
            assert status == 200 and body == b"ok"
            assert stub.connections == 1
            status, _ = _through_proxy(addr, f"http://localhost:{stub.port}/two")
            assert status == 403
            assert stub.connections == 1
        finally:
            process.terminate()
            process.wait(timeout=10)
    finally:
        stub.close()
    report(7, "proxy blocks localhost scans (zero leak) and learns on reply", started, 30.0)


# ----------------------------------------------------------------------
# 8. bit-exact conformance vectors


def test_criterion_8_conformance_vectors():
    started = time.perf_counter()
    doc = json.loads(
        resources.files("webshield.data").joinpath("conformance_vectors.json").read_text()
    )
    session = SessionKey.from_hex(doc["session_key_hex"])
    assert session.value == bytes(32)
    origin = Origin.parse(doc["origin"])
    assert len(doc["tags"]) >= 5
    for tag, vector in doc["tags"].items():
        seed = derive_seed(session, origin, tag)
        # library vs frozen file
        assert seed.value.hex() == vector["seed_hex"], tag
        assert keystream_bytes(seed, 0, 32).hex() == vector["keystream_0_32_hex"], tag
        assert keystream_bytes(seed, 32, 32).hex() == vector["keystream_32_32_hex"], tag
        for index, expected in enumerate(vector["uniform01"]):
            assert uniform01(seed, index) == expected, (tag, index)
        # frozen file vs independent oracle recomputation
        oracle_seed = hashlib.sha256(
            session.value + b"\x00" + doc["origin"].encode() + b"\x00" + tag.encode()
        ).digest()
        assert oracle_seed.hex() == vector["seed_hex"], tag
        oracle_stream = (
            hashlib.sha256(oracle_seed + struct.pack("<Q", 0)).digest()
            + hashlib.sha256(oracle_seed + struct.pack("<Q", 1)).digest()
        )
        assert oracle_stream[:32].hex() == vector["keystream_0_32_hex"], tag
        assert oracle_stream[32:].hex() == vector["keystream_32_32_hex"], tag
        for index, expected in enumerate(vector["uniform01"]):
            u64 = struct.unpack("<Q", oracle_stream[8 * index : 8 * index + 8])[0]
            assert (u64 >> 11) * 2.0**-53 == expected, (tag, index)
    report(8, f"{len(doc['tags'])} tag vectors bit-exact against the independent oracle", started, 5.0)
