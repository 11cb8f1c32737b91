"""Filtering HTTP forward proxy enforcing network boundary decisions.

Each request (plain HTTP or CONNECT tunnel) is decided by ``nbs.gate``
before any upstream traffic, and the proxy connects only to the address
the gate names: a crossing request is answered 403 without a single
packet reaching the target.  In learn-on-reply mode unknown hostnames
pass once, and a known hostname that now resolves across the boundary
is blocked.  Replies are relayed as sent, byte for byte, until the
target closes.

Connections are served by a capped pool of reused worker threads,
started only when no worker is idle.  A connection that arrives while
``MAX_CONNECTIONS`` are being served gets a bare 503 and is closed.

Decisions stream to a JSONL log.  Repeated blocks of the same target
within a short window coalesce into one line carrying a count, so a
page hammering a blocked host does not flood the log.
"""

from __future__ import annotations

import json
import queue
import re
import select
import socket
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import urlsplit

from .nbs import AddressClass, Decision, LearnCache, NbsMode, gate, split_authority

BLOCK_REASON_HEADER = "X-Boundary-Block-Reason"
COALESCE_WINDOW_S = 10.0
UPSTREAM_TIMEOUT_S = 10.0
CLIENT_TIMEOUT_S = 10.0  # a client silent this long mid-request is disconnected
MAX_BODY_BYTES = 16 * 1024 * 1024  # larger declared bodies get a 413
# Connections served at once; one more gets a 503.  One browser at its
# defaults stays below it: Firefox opens at most 900 HTTP connections
# (network.http.max-connections), counting tunnels through a proxy per
# origin rather than per proxy, plus at most 200 WebSockets
# (network.websocket.max-connections); Chrome opens at most 32 to one
# proxy (the MaxConnectionsPerProxy policy's default).
MAX_CONNECTIONS = 1100

_BUSY_REPLY = (b"HTTP/1.1 503 Service Unavailable\r\n"
               b"Content-Length: 0\r\nConnection: close\r\n\r\n")

_HOP_BY_HOP = {
    "connection",
    "proxy-connection",
    "keep-alive",
    "te",
    "trailers",
    "transfer-encoding",
    "upgrade",
    "proxy-authorization",
    "proxy-authenticate",
    "expect",  # the upstream gets the whole body at once; the proxy answers it
}
_CONTROL_OR_SPACE = re.compile("[\x00-\x20\x7f]")


@dataclass
class ProxyConfig:
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    mode: NbsMode = NbsMode.PRE_RESOLVE
    origin_class: AddressClass = AddressClass.PUBLIC
    log_path: Path | None = None


class DecisionLog:
    """JSONL decision log with per-target coalescing of blocks.

    The file stays open until ``close``; every line is flushed as written.
    """

    def __init__(self, path: Path | None):
        self._lock = threading.RLock()  # close() flushes while holding it
        self._pending: dict = {}  # (host, class) -> (record, window_start)
        self._file = None
        if path:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(path, "a")

    def _write(self, record: dict) -> None:
        if self._file:  # None once closed: late lines are dropped
            self._file.write(json.dumps(record) + "\n")
            self._file.flush()

    def log(self, host: str, cls: str, decision: str, reason: str) -> None:
        with self._lock:
            record = {"t": datetime.now(timezone.utc).isoformat(), "host": host, "class": cls,
                      "decision": decision, "reason": reason, "coalesced": 1}
            if decision != Decision.BLOCK.value:
                self._write(record)
                return
            now = time.monotonic()
            pending = self._pending.get((host, cls))
            if pending and now - pending[1] < COALESCE_WINDOW_S:
                pending[0]["coalesced"] += 1
                return
            if pending:
                self._write(pending[0])
            self._pending[(host, cls)] = (record, now)

    def flush(self, min_age_s: float = 0.0) -> None:
        """Write the block windows that have been open at least ``min_age_s``."""
        now = time.monotonic()
        with self._lock:
            for key, (record, window_start) in list(self._pending.items()):
                if now - window_start >= min_age_s:
                    del self._pending[key]
                    self._write(record)

    def close(self) -> None:
        with self._lock:
            self.flush()
            if self._file:
                self._file.close()
                self._file = None


class _ProxyHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "webshield-nbs"
    timeout = CLIENT_TIMEOUT_S  # applied to the client socket by StreamRequestHandler.setup

    # ------------------------------------------------------------------
    # decision plumbing

    def log_message(self, fmt, *args):  # silence default stderr chatter
        pass

    expects_continue = False  # set by handle_expect_100

    def parse_request(self):
        """The base class's parse, after skipping one empty line before the
        request line (RFC 9112 section 2.2); a blank request line gets a
        400, not silence."""
        if self.raw_requestline in (b"\r\n", b"\n"):
            self.raw_requestline = self.rfile.readline(65537)
            if len(self.raw_requestline) > 65536:  # as handle_one_request checks
                self.requestline = self.request_version = self.command = ""
                self.send_error(414)
                return False
        if super().parse_request():
            return True
        if not self.requestline.split():  # the base class closed without a reply
            self.send_error(400, "Bad request syntax (blank request line)")
        return False

    def handle_expect_100(self):
        # Sent, if at all, once the request is allowed and its upstream is
        # connected: a blocked or refused request gets only its final reply.
        self.expects_continue = True
        return True

    def send_response(self, code, message=None):
        # The base class leaves out the status line and headers while the
        # request version reads HTTP/0.9: its default until a version is
        # parsed, and what a request line ending "HTTP/0.9" sets.
        if self.request_version == "HTTP/0.9":
            self.request_version = "HTTP/1.1"
        super().send_response(code, message)

    def _reply(self, status: int, body: str, headers: dict | None = None) -> None:
        """Send a complete response and close the connection."""
        payload = body.encode()
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _deny(self, host: str, cls: str, reason: str) -> None:
        self.server.log.log(host, cls, Decision.BLOCK.value, reason)
        self._reply(403, reason, {BLOCK_REASON_HEADER: reason, "Content-Type": "text/plain"})

    def _bad_gateway(self, message: str) -> None:
        self._reply(502, message, {"Content-Type": "text/plain"})

    def _open_upstream(self, host: str, port: int) -> socket.socket | None:
        """Gate, log and connect: the only way the proxy reaches a target.

        Returns the socket, or None once a reply has been sent.
        """
        server, config = self.server, self.server.config
        try:
            decision, address = gate(config.mode, config.origin_class, host, port, server.cache)
        except OSError as exc:
            self._bad_gateway(f"resolver failure for {host!r}: {exc}")
            return None
        cls = decision.target.value if decision.target else "unknown"
        if address is None:
            self._deny(host, cls, decision.reason)
            return None
        server.log.log(host, cls, decision.value.value, decision.reason)
        try:
            return socket.create_connection(address, timeout=UPSTREAM_TIMEOUT_S)
        except OSError as exc:
            self._bad_gateway(f"upstream connection failed: {exc}")
            return None

    # ------------------------------------------------------------------
    # plain HTTP forwarding

    def _handle_http(self):
        lengths = {value.strip() for value in self.headers.get_all("Content-Length", [])}
        length_text = next(iter(lengths), "") or "0"
        try:
            if len(lengths) > 1:  # RFC 9112 section 6.3: an unrecoverable error
                raise ValueError(f"conflicting Content-Length values: {sorted(lengths)!r}")
            if not self.path.startswith(("http://", "https://")):
                raise ValueError("proxy requires absolute-form request targets")
            if _CONTROL_OR_SPACE.search(self.path):
                raise ValueError(f"control character in request target {self.path!r}")
            parts = urlsplit(self.path)
            host, port = split_authority(parts.netloc, 80)
            if not (length_text.isascii() and length_text.isdigit()):
                raise ValueError(f"bad Content-Length: {length_text!r}")
        except ValueError as exc:
            self._reply(400, str(exc))
            return
        if "Transfer-Encoding" in self.headers:  # only Content-Length bodies are forwarded
            self._reply(411, "Transfer-Encoding is not supported; send a Content-Length")
            return
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            self._reply(413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
            return
        query = "?" + parts.query if parts.query else ""
        lines = [f"{self.command} {parts.path or '/'}{query} HTTP/1.1"]
        lines += [f"{name}: {value}" for name, value in self.headers.items()
                  if name.lower() not in _HOP_BY_HOP]
        if "Host" not in self.headers:
            lines.append(f"Host: {parts.netloc}")
        # the head was read as latin-1, so encoding it back restores its bytes
        head = "\r\n".join(lines + ["Connection: close", "", ""]).encode("latin-1")
        upstream = self._open_upstream(host, port)
        if upstream is None:
            return
        with upstream:
            if self.expects_continue:
                self.send_response_only(100)
                self.end_headers()
            body = self.rfile.read(length)
            try:
                upstream.sendall(head + body)
                data = upstream.recv(65536)
                if not data:
                    raise ConnectionError("upstream closed the connection without a reply")
            except OSError as exc:
                self._bad_gateway(f"upstream connection failed: {exc}")
                return
            self.close_connection = True  # the relayed reply ends when the upstream closes
            try:
                while data:
                    self.wfile.write(data)
                    data = upstream.recv(65536)
            except OSError:
                pass  # part of the reply is out: closing is the only signal left

    do_GET = _handle_http
    do_POST = _handle_http
    do_PUT = _handle_http
    do_DELETE = _handle_http
    do_HEAD = _handle_http
    do_OPTIONS = _handle_http
    do_PATCH = _handle_http

    # ------------------------------------------------------------------
    # CONNECT tunneling

    def do_CONNECT(self):
        try:
            host, port = split_authority(self.path, 443)
        except ValueError as exc:
            self._reply(400, str(exc))
            return
        upstream = self._open_upstream(host, port)
        if upstream is None:
            return
        self.send_response(200, "Connection Established")
        self.send_header("Connection", "close")
        self.end_headers()
        self._pump(self.connection, upstream)

    def _pump(self, client: socket.socket, upstream: socket.socket) -> None:
        sockets = [client, upstream]
        try:
            # Bytes the client sent right after the CONNECT head already sit
            # in rfile's buffer; under a zero timeout peek returns them and
            # does not wait for more.
            client.settimeout(0)
            pending = self.rfile.peek()
            client.settimeout(self.timeout)
            upstream.sendall(self.rfile.read(len(pending)))
            while True:
                readable, _, _ = select.select(sockets, [], [], 30.0)
                if not readable:
                    break
                for sock in readable:
                    data = sock.recv(65536)
                    if not data:
                        return
                    (upstream if sock is client else client).sendall(data)
        except OSError:
            pass
        finally:
            upstream.close()
            self.close_connection = True


class BoundaryProxy(HTTPServer):
    """Long-running filtering proxy service."""

    def __init__(self, config: ProxyConfig):
        if ":" in config.listen_host:  # an IPv6 literal, without brackets
            self.address_family = socket.AF_INET6
        super().__init__((config.listen_host, config.listen_port), _ProxyHandler)
        self.config = config
        self.cache = LearnCache()
        try:  # opened only once bound, so a failed bind leaves no open file
            self.log = DecisionLog(config.log_path)
        except OSError:
            self.server_close()
            raise
        self._thread: threading.Thread | None = None
        self._idle = threading.Semaphore(0)  # one token per worker waiting for a job
        self._jobs = queue.SimpleQueue()
        self._workers = 0  # changed only by the serve thread

    def process_request(self, request, client_address):
        """Hand the connection to an idle worker, start one, or answer 503."""
        if not self._idle.acquire(blocking=False):
            if self._workers >= MAX_CONNECTIONS:
                try:
                    request.settimeout(0)
                    request.send(_BUSY_REPLY)
                except OSError:
                    pass
                self.shutdown_request(request)
                return
            # started before the job is queued: if the start raises, the
            # caller closes the connection and the pool is as it was
            threading.Thread(target=self._work, daemon=True).start()
            self._workers += 1
        self._jobs.put((request, client_address))

    def _work(self) -> None:
        while (job := self._jobs.get()) is not None:
            request, client_address = job
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                # idle before the client sees the close, so that its next
                # connection finds this worker instead of starting one
                self._idle.release()
                self.shutdown_request(request)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return host, port

    def service_actions(self) -> None:
        # serve_forever calls this after every poll, so an expired block
        # window reaches the log within one poll interval
        self.log.flush(COALESCE_WINDOW_S)

    def start(self) -> "BoundaryProxy":
        # shutdown() waits for serve_forever to notice the request between
        # polls; the default 0.5 s interval would make every stop that slow
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        # idle workers end at once; a busy one (a tunnel) ends after its job
        for _ in range(self._workers):
            self._jobs.put(None)
        if self._thread:
            self._thread.join(timeout=5)
        self.log.close()


def run_proxy(config: ProxyConfig) -> BoundaryProxy:
    """Bind and start the proxy in a background thread; caller stops it."""
    return BoundaryProxy(config).start()
