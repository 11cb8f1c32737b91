"""Filtering HTTP forward proxy enforcing network boundary decisions.

Each request (plain HTTP or CONNECT tunnel) is decided by ``nbs.gate``
before any upstream traffic, and the proxy connects only to the address
the gate names: a crossing request is answered 403 without a single
packet reaching the target.  In learn-on-reply mode unknown hostnames
pass once, and a known hostname that now resolves across the boundary
is blocked.  Replies are relayed as sent, byte for byte, until the
target closes.

Decisions stream to a JSONL log.  Repeated blocks of the same target
within a short window coalesce into one line carrying a count, so a
page hammering a blocked host does not flood the log.
"""

from __future__ import annotations

import json
import re
import select
import socket
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

from .nbs import AddressClass, Decision, LearnCache, NbsMode, gate, split_authority

BLOCK_REASON_HEADER = "X-Boundary-Block-Reason"
COALESCE_WINDOW_S = 10.0
UPSTREAM_TIMEOUT_S = 10.0
MAX_BODY_BYTES = 16 * 1024 * 1024  # larger declared bodies get a 413

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

    # ------------------------------------------------------------------
    # decision plumbing

    def log_message(self, fmt, *args):  # silence default stderr chatter
        pass

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
        length_text = (self.headers.get("Content-Length") or "").strip() or "0"
        try:
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
        upstream.settimeout(None)
        client.settimeout(None)
        sockets = [client, upstream]
        try:
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


class BoundaryProxy(ThreadingHTTPServer):
    """Long-running filtering proxy service."""

    daemon_threads = True

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
        if self._thread:
            self._thread.join(timeout=5)
        self.log.close()


def run_proxy(config: ProxyConfig) -> BoundaryProxy:
    """Bind and start the proxy in a background thread; caller stops it."""
    return BoundaryProxy(config).start()
