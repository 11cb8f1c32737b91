"""Filtering HTTP forward proxy enforcing network boundary decisions.

Each request (plain HTTP or CONNECT tunnel) is decided before any
upstream traffic: in pre-resolve mode the target is resolved first and a
crossing request is answered 403 without a single byte reaching the
target; in learn-on-reply mode unknown hostnames pass once, their peer
address is recorded from the reply socket, and subsequent requests are
blocked from the cache.

Decisions stream to a JSONL log.  Repeated blocks of the same target
within a short window coalesce into one line carrying a count, so a
page hammering a blocked host does not flood the log.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .nbs import (
    AddressClass,
    Decision,
    LearnCache,
    NbsMode,
    gate,
    observe_reply,
    split_authority,
)

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

    def _gate(self, host: str, port: int):
        """Run the boundary gate for a target and log its decision.

        Returns (connect_address_or_None, learned_hostname_or_None);
        None address means the response has already been sent.
        """
        server = self.server
        try:
            decision, address = gate(
                server.config.mode, server.config.origin_class, host, port, server.cache
            )
        except OSError as exc:
            self._bad_gateway(f"resolver failure for {host!r}: {exc}")
            return None, None
        cls = decision.target.value if decision.target else "unknown"
        if address is None:
            self._deny(host, cls, decision.reason)
            return None, None
        server.log.log(host, cls, decision.value.value, decision.reason)
        learned = host if decision.value is Decision.ALLOW_AND_LEARN else None
        return address, learned

    def _learn_peer(self, sock: socket.socket, hostname: str | None) -> None:
        if hostname is None:
            return
        try:
            peer = sock.getpeername()[0]
        except OSError:
            return
        observe_reply(self.server.cache, hostname, peer)

    # ------------------------------------------------------------------
    # plain HTTP forwarding

    def _handle_http(self):
        from urllib.parse import urlsplit

        if not self.path.startswith(("http://", "https://")):
            self._reply(400, "proxy requires absolute-form request targets")
            return
        parts = urlsplit(self.path)
        length_text = (self.headers.get("Content-Length") or "").strip() or "0"
        try:
            host, port = split_authority(parts.netloc, 80)
            if not (length_text.isascii() and length_text.isdigit()):
                raise ValueError(f"bad Content-Length: {length_text!r}")
        except ValueError as exc:
            self._reply(400, str(exc))
            return
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            self._reply(413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
            return
        connect_addr, learn_host = self._gate(host, port)
        if connect_addr is None:
            return

        origin_path = parts.path or "/"
        if parts.query:
            origin_path += "?" + parts.query
        body = self.rfile.read(length) if length else None

        conn = http.client.HTTPConnection(*connect_addr, timeout=UPSTREAM_TIMEOUT_S)
        try:
            conn.connect()
            self._learn_peer(conn.sock, learn_host)
            conn.putrequest(self.command, origin_path, skip_host=True, skip_accept_encoding=True)
            sent_host = False
            for name, value in self.headers.items():
                if name.lower() in _HOP_BY_HOP:
                    continue
                if name.lower() == "host":
                    sent_host = True
                conn.putheader(name, value)
            if not sent_host:
                conn.putheader("Host", parts.netloc)
            conn.putheader("Connection", "close")
            conn.endheaders(body)
            response = conn.getresponse()
            payload = response.read()
        except OSError as exc:
            self._bad_gateway(f"upstream connection failed: {exc}")
            return
        finally:
            conn.close()

        self.send_response(response.status, response.reason)
        for name, value in response.getheaders():
            if name.lower() in _HOP_BY_HOP or name.lower() == "content-length":
                continue
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

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
        connect_addr, learn_host = self._gate(host, port)
        if connect_addr is None:
            return
        try:
            upstream = socket.create_connection(connect_addr, timeout=UPSTREAM_TIMEOUT_S)
        except OSError as exc:
            self._bad_gateway(f"upstream connection failed: {exc}")
            return
        self._learn_peer(upstream, learn_host)
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
