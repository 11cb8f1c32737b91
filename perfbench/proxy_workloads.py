"""The two proxy workloads: ``proxy_preresolve`` and ``proxy_learn``.

``webshield nbs proxy`` runs in its own process and forwards to the
counting stub (``stub.py``) in another.  Two client threads in this
process (one per core of the 2-vCPU machine it is sized for) each run a
closed loop: one request per
TCP connection, the next only after the previous response has ended.
The request kinds come from ``inputs.proxy_mix``.
"""

from __future__ import annotations

import hashlib
import itertools
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import inputs
import stats
from procs import Children

CLIENTS = 2
DIRECT_EVERY = 8  # one direct stub request per this many proxied ones
LOCAL_DIRECT = 17  # direct requests around a request that scale it
WARMUP_REQUESTS = 64
DIGEST_REQUESTS = 256
BLOCK_HEADER = "x-boundary-block-reason"
BENCH = Path(__file__).resolve().parent


class Stub:
    def __init__(self, children: Children, env: dict, workdir: Path):
        with open(workdir / "stub.err", "w") as err:
            self.proc = children.spawn(
                [sys.executable, str(BENCH / "stub.py")], env=env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])

    def accepted(self) -> int:
        self.proc.stdin.write("count\n")
        self.proc.stdin.flush()
        return int(self.proc.stdout.readline().split()[1])


def spawn_proxy(children: Children, env: dict, mode: str, workdir: Path, tag: str,
                spans_out: Path | None = None) -> tuple[subprocess.Popen, int, float]:
    """Start the proxy; return it, its port and seconds until it listened."""
    args = ["nbs", "proxy", "--listen", "127.0.0.1:0", "--mode", mode,
            "--origin-class", "loopback", "--log", str(workdir / f"decisions-{tag}.jsonl")]
    if spans_out is None:
        cmd = [sys.executable, "-m", "webshield", *args]
    else:
        cmd = [sys.executable, str(BENCH / "launch_proxy.py"), str(spans_out), "--", *args]
    t0 = time.perf_counter()
    with open(workdir / f"proxy-{tag}.err", "w") as err:
        proc = children.spawn(cmd, env=env, text=True, stdout=subprocess.PIPE, stderr=err)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if not line.startswith("listening on "):
        raise RuntimeError(f"proxy did not start: {line!r}")
    port = int(line.split()[2].rsplit(":", 1)[1])
    return proc, port, setup


# ----------------------------------------------------------------------
# client


class Result(NamedTuple):
    index: int  # position in the seeded request sequence
    kind: str
    latency_ms: float
    problem: str | None
    digest_part: bytes  # empty beyond the first DIGEST_REQUESTS
    body_bytes: int  # relayed body bytes the client received
    start_s: float  # since the clients started
    direct_ms: float | None  # a direct request to the stub made after this one


def _recv_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def _recv_head(sock: socket.socket) -> bytes:
    buf = b""
    while b"\r\n\r\n" not in buf:
        data = sock.recv(4096)
        if not data:
            break
        buf += data
    return buf


def _parse(raw: bytes) -> tuple[int, dict, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def request(kind: str, index: int, proxy_port: int, stub_port: int) -> tuple[int, dict, bytes]:
    """Send one request of ``kind`` through the proxy; return its response."""
    with socket.create_connection(("127.0.0.1", proxy_port), timeout=30) as sock:
        if kind == inputs.CONNECT:
            target = f"localhost:{stub_port}"
            sock.sendall(f"CONNECT {target} HTTP/1.1\r\nHost: {target}\r\n\r\n".encode())
            status, headers, _ = _parse(_recv_head(sock))
            if status != 200:
                return status, headers, b""
            sock.sendall(f"GET /t/{index} HTTP/1.1\r\nHost: {target}\r\n"
                         "Connection: close\r\n\r\n".encode())
            return _parse(_recv_all(sock))
        host = "0.0.0.0" if kind == inputs.BLOCKED else "localhost"
        path = f"/{kind}/{index}"
        sock.sendall(f"GET http://{host}:{stub_port}{path} HTTP/1.1\r\n"
                     f"Host: {host}:{stub_port}\r\n\r\n".encode())
        return _parse(_recv_all(sock))


def direct(index: int, stub_port: int) -> tuple[float, str | None]:
    """One small GET straight to the stub, bypassing the proxy: the
    reference the proxied latency is divided by.  Returns its latency in
    ms and a problem, if any."""
    path = f"/direct/{index}"
    t0 = time.perf_counter()
    with socket.create_connection(("127.0.0.1", stub_port), timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: localhost:{stub_port}\r\n"
                     "Connection: close\r\n\r\n".encode())
        status, _headers, body = _parse(_recv_all(sock))
    latency = (time.perf_counter() - t0) * 1e3
    ok = status == 200 and body == inputs.stub_body(path)
    return latency, None if ok else f"direct request got {status} or a wrong body"


def expected_body(kind: str, index: int) -> bytes:
    path = f"/t/{index}" if kind == inputs.CONNECT else f"/{kind}/{index}"
    return inputs.stub_body(path)


def check(kind: str, index: int, status: int, headers: dict, body: bytes) -> str | None:
    if kind == inputs.BLOCKED:
        if status != 403 or not headers.get(BLOCK_HEADER):
            return f"blocked request got {status} without a block reason"
        return None
    if status != 200 or body != expected_body(kind, index):
        return f"{kind} request got {status} or a wrong body"
    return None


def drive(kinds: list, seconds: float, proxy_port: int, stub_port: int) -> dict:
    """Run the closed-loop clients for ``seconds``; collect per-request results."""
    counter = itertools.count()
    results = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client():
        local = []
        while time.perf_counter() < deadline:
            i = next(counter)
            kind = kinds[i % len(kinds)]
            t0 = time.perf_counter()
            try:
                status, headers, body = request(kind, i, proxy_port, stub_port)
                problem = check(kind, i, status, headers, body)
            except (OSError, ValueError, IndexError) as exc:
                status, headers, body, problem = 0, {}, b"", f"{kind} request failed: {exc!r}"
            latency = (time.perf_counter() - t0) * 1e3
            direct_ms = None
            if i % DIRECT_EVERY == 0 and problem is None:
                try:
                    direct_ms, problem = direct(i, stub_port)
                except (OSError, ValueError, IndexError) as exc:
                    problem = f"direct request failed: {exc!r}"
            part = b""
            if i < DIGEST_REQUESTS:
                part = f"{i} {kind} {status} {headers.get(BLOCK_HEADER, '')} ".encode() + \
                    hashlib.sha256(body).digest()
            local.append(Result(i, kind, latency, problem, part,
                                len(body) if status == 200 else 0, t0 - start, direct_ms))
        with lock:
            results.extend(local)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    results.sort(key=lambda r: r.index)
    return {"results": results, "wall_s": wall}


def summarize(run: dict) -> dict:
    results = run["results"]
    outcome = stats.Outcome(DIGEST_REQUESTS)
    for r in results:
        outcome.record(r.problem is None, r.problem, [r.digest_part])
    timed = [r for r in results if r.index >= WARMUP_REQUESTS]
    lat = [r.latency_ms for r in timed]
    blocked = [r.latency_ms for r in timed if r.kind == inputs.BLOCKED]
    ok = [r for r in results if r.problem is None]
    # The host's speed drifts by 15 to 30% between runs and stalls for a
    # few ms now and then; the direct requests made in the same moments
    # move just as much.  Each request is divided by the median of the
    # LOCAL_DIRECT direct requests nearest to it in time, which leaves
    # what the proxy adds, scaled to a 1 ms direct request.
    directs = sorted((r.start_s, r.direct_ms) for r in timed if r.direct_ms is not None)
    direct_at = np.array([t for t, _ in directs])
    direct_ms = np.array([ms for _, ms in directs])
    half = LOCAL_DIRECT // 2
    scaled = [
        r.latency_ms / np.median(direct_ms[max(0, i - half): i + half + 1])
        for r, i in zip(timed, np.searchsorted(direct_at, [r.start_s for r in timed]))
    ]
    return {
        "outcome": outcome,
        "requests": len(results),
        "relayed": sum(1 for r in ok if r.kind != inputs.BLOCKED),
        "direct": sum(1 for r in results if r.direct_ms is not None),
        "blocked": sum(1 for r in ok if r.kind == inputs.BLOCKED),
        "relay_bytes": sum(r.body_bytes for r in results),
        "metrics": {
            "latency_ms": stats.percentile(scaled, 50),
            # p90, not p95: the host's stalls of a few ms hit single
            # requests, and no reference taken nearby sees them
            "latency_tail_ms": stats.percentile(scaled, 90),
            "direct_p50_ms": stats.percentile(direct_ms, 50),
            "proxy_req_per_s": len(results) / run["wall_s"],
            "proxy_p50_ms": stats.percentile(lat, 50),
            "proxy_p99_ms": stats.percentile(lat, 99),
            "proxy_block_p50_ms": stats.percentile(blocked, 50),
            "timed_requests": len(lat),
        },
    }
