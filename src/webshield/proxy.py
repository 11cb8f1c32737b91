"""Filtering HTTP forward proxy enforcing network boundary decisions.

Each request (plain ``http://`` or CONNECT tunnel) is decided by ``nbs.gate``
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

import queue
import re
import select
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from http import HTTPStatus
from json.encoder import encode_basestring_ascii as _quote
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

# request fields never forwarded, with those the client's Connection names
_HOP_BY_HOP = {
    "connection", "proxy-connection", "keep-alive", "te", "trailers", "transfer-encoding",
    "upgrade", "proxy-authorization", "proxy-authenticate",
    "expect",  # the upstream gets the whole body at once; the proxy answers it
    "host",  # taken from the request target (RFC 9112 section 3.2.2)
}
_NOT_VISIBLE = re.compile("[^!-~]")  # outside visible ASCII (RFC 5234 VCHAR)
# a token, a colon and a value without CR or NUL (RFC 9112 section 5, RFC 9110
# section 5.5).  The SP/HTAB before the value is stripped after the match: a
# pattern for it would overlap the value's and backtrack in quadratic time.
_FIELD_LINE = re.compile(r"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):([^\r\n\x00]*)\r?\n")
_VERSION = re.compile(rb"HTTP/([0-9]+)\.([0-9]+)")
_MAX_LINE = 65536  # bytes in the request line and in each header line
_MAX_HEADERS = 100
_FORWARDED_METHODS = {"GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH"}


@dataclass
class ProxyConfig:
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    mode: NbsMode = NbsMode.PRE_RESOLVE
    origin_class: AddressClass = AddressClass.PUBLIC
    log_path: Path | None = None


class DecisionLog:
    """JSONL decision log with per-target coalescing of blocks.

    The file stays open until ``close``.  It is unbuffered and each line
    is one write, so a line is in the file when ``log`` returns.
    """

    def __init__(self, path: Path | None):
        self._lock = threading.RLock()  # close() flushes while holding it
        self._pending: dict = {}  # (host, class) -> (record, window_start)
        self._file = None
        if path:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(path, "ab", buffering=0)

    def _write(self, record: list) -> None:
        """Write ``[t, host, class, decision, reason, coalesced]`` as the
        bytes of ``json.dumps`` of the keyed record, plus a newline."""
        if self._file:  # None once closed: late lines are dropped
            t, host, cls, decision, reason, coalesced = record
            self._file.write(
                f'{{"t": {_quote(t)}, "host": {_quote(host)}, "class": {_quote(cls)}, '
                f'"decision": {_quote(decision)}, "reason": {_quote(reason)}, '
                f'"coalesced": {coalesced}}}\n'.encode("ascii")
            )

    def log(self, host: str, cls: str, decision: str, reason: str) -> None:
        with self._lock:
            record = [datetime.now(timezone.utc).isoformat(), host, cls, decision, reason, 1]
            if decision != Decision.BLOCK.value:
                self._write(record)
                return
            now = time.monotonic()
            pending = self._pending.get((host, cls))
            if pending and now - pending[1] < COALESCE_WINDOW_S:
                pending[0][-1] += 1
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


_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(seconds: float) -> str:
    """``seconds`` since the epoch as an IMF-fixdate (RFC 9110 section 5.6.7),
    in English whatever the locale.  Written here because ``email.utils``,
    the standard library's formatter, loads ten modules for this one call."""
    t = time.gmtime(seconds)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _values(fields: list, name: str) -> list[str]:
    """The values of every field called ``name`` (lower case), in order."""
    return [value for field, value in fields if field.lower() == name]


class _ProxyHandler(socketserver.StreamRequestHandler):
    timeout = CLIENT_TIMEOUT_S  # applied to the client socket by StreamRequestHandler.setup

    def handle(self) -> None:
        """Read one request head, then tunnel it, forward it, or refuse it.

        One empty line may precede the request line (RFC 9112 section 2.2),
        which splits at SP, HTAB, VT, FF and CR only (section 3).  A request
        line over ``_MAX_LINE`` bytes gets 414; a header line over it, or
        more than ``_MAX_HEADERS`` of them, 431; a version of 2 or more 505;
        any other malformed head, including one cut off at EOF, one with a
        field line that is not ``token ":" value`` with no CR or NUL in the
        value (no colon, an empty name, SP, HTAB or a control character in
        the name, or an obs-fold) and one whose target holds a byte outside
        visible ASCII, 400.  A client that leaves before its first byte gets
        no reply.
        """
        line = self.rfile.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            line = self.rfile.readline(_MAX_LINE + 1)
        elif not line:
            return
        if len(line) > _MAX_LINE:
            self._reply(414, f"request line longer than {_MAX_LINE} bytes")
            return
        words = line.split()  # bytes.split: exactly the separators section 3 allows
        version = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
        if version is None:
            self._reply(400, "the request line needs a method, a target and an "
                             "HTTP/<major>.<minor> version")
            return
        major, minor = int(version[1]), int(version[2])
        if major >= 2:
            self._reply(505, f"HTTP version {words[2].decode()} is not supported")
            return
        fields = []  # (name, value) in the order sent
        while (line := self.rfile.readline(_MAX_LINE + 1)) not in (b"\r\n", b"\n"):
            if len(line) > _MAX_LINE or len(fields) == _MAX_HEADERS:
                self._reply(431, f"request head exceeds {_MAX_HEADERS} header lines "
                                 f"of {_MAX_LINE} bytes")
                return
            if not line.endswith(b"\n"):  # the client closed mid-head
                self._reply(400, "request head ended before its blank line")
                return
            text = line.decode("latin-1")
            field = _FIELD_LINE.fullmatch(text)
            if field is None:
                self._reply(400, f"malformed header field line {text.rstrip()!r}")
                return
            fields.append((field[1], field[2].lstrip(" \t")))
        method, target = (word.decode("latin-1") for word in words[:2])
        if _NOT_VISIBLE.search(target):
            self._reply(400, f"request target {target!r} holds a byte outside visible ASCII")
        elif method == "CONNECT":
            self._tunnel(target)
        elif method in _FORWARDED_METHODS:
            # RFC 9110 section 10.1.1: an HTTP/1.0 request's expectation is ignored
            expect = (_values(fields, "expect") or [""])[0]
            continues = (major, minor) >= (1, 1) and expect.lower() == "100-continue"
            self._handle_http(method, target, fields, continues)
        else:
            self._reply(501, f"method {method!r} is not supported")

    @staticmethod
    def _head(status_line: str, headers: dict) -> bytes:
        lines = [f"HTTP/1.1 {status_line}", "Server: webshield-nbs",
                 f"Date: {_http_date(time.time())}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        return "\r\n".join(lines + ["Connection: close", "", ""]).encode("latin-1")

    def _reply(self, status: int, body: str, headers: dict | None = None) -> None:
        """Send a complete response; the connection closes after it."""
        payload = body.encode()
        headers = {**(headers or {}), "Content-Length": len(payload)}
        self.wfile.write(self._head(f"{status} {HTTPStatus(status).phrase}", headers) + payload)

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

    def _handle_http(self, method: str, target: str, fields: list, continues: bool) -> None:
        lengths = {value.strip() for value in _values(fields, "content-length")}
        length_text = next(iter(lengths), "0")  # an empty value is refused below
        try:
            if len(lengths) > 1:  # RFC 9112 section 6.3: an unrecoverable error
                raise ValueError(f"conflicting Content-Length values: {sorted(lengths)!r}")
            if not target.startswith("http://"):
                raise ValueError("proxy requires absolute-form http:// request targets; "
                                 "use CONNECT for https")
            parts = urlsplit(target)
            host, port = split_authority(parts.netloc, 80)
            if not (length_text.isascii() and length_text.isdigit()):
                raise ValueError(f"bad Content-Length: {length_text!r}")
        except ValueError as exc:
            self._reply(400, str(exc))
            return
        if _values(fields, "transfer-encoding"):  # only Content-Length bodies are forwarded
            self._reply(411, "Transfer-Encoding is not supported; send a Content-Length")
            return
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            self._reply(413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
            return
        query = "?" + parts.query if parts.query else ""
        # the fields the client's Connection names are hop-by-hop (RFC 9110 section 7.6.1),
        # except Content-Length, which frames the body sent on
        dropped = _HOP_BY_HOP | {name.strip().lower() for value in _values(
            fields, "connection") for name in value.split(",")} - {"content-length"}
        lines = [f"{method} {parts.path or '/'}{query} HTTP/1.1"]
        lines += [f"{name}: {value}" for name, value in fields if name.lower() not in dropped]
        lines += [f"Host: {parts.netloc}", "Connection: close", "", ""]
        # the head was read as latin-1, so encoding it back restores its bytes
        head = "\r\n".join(lines).encode("latin-1")
        upstream = self._open_upstream(host, port)
        if upstream is None:
            return
        with upstream:
            if continues:  # only now: a refused request gets its final reply alone
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = self.rfile.read(length)
            if len(body) < length:  # the client closed mid-body: send the target nothing
                self._reply(400, f"request body ended after {len(body)} of {length} bytes")
                return
            try:
                upstream.sendall(head + body)
                data = upstream.recv(65536)
                if not data:
                    raise ConnectionError("upstream closed the connection without a reply")
            except OSError as exc:
                self._bad_gateway(f"upstream connection failed: {exc}")
                return
            try:
                while data:
                    self.wfile.write(data)
                    data = upstream.recv(65536)
            except OSError:
                pass  # part of the reply is out: closing is the only signal left

    # ------------------------------------------------------------------
    # CONNECT tunneling

    def _tunnel(self, target: str) -> None:
        try:
            host, port = split_authority(target, 443)
        except ValueError as exc:
            self._reply(400, str(exc))
            return
        upstream = self._open_upstream(host, port)
        if upstream is None:
            return
        self.wfile.write(self._head("200 Connection Established", {}))
        self._pump(self.connection, upstream)

    def _pump(self, client: socket.socket, upstream: socket.socket) -> None:
        # poll, unlike select, takes descriptors above 1023
        ends = {client.fileno(): (client, upstream), upstream.fileno(): (upstream, client)}
        poller = select.poll()
        for fd in ends:
            poller.register(fd, select.POLLIN)
        try:
            # Bytes the client sent right after the CONNECT head already sit
            # in rfile's buffer; under a zero timeout peek returns them and
            # does not wait for more.
            client.settimeout(0)
            pending = self.rfile.peek()
            client.settimeout(self.timeout)
            upstream.sendall(self.rfile.read(len(pending)))
            while events := poller.poll(30_000):
                for fd, _ in events:
                    source, sink = ends[fd]
                    data = source.recv(65536)
                    if not data:
                        return
                    sink.sendall(data)
        except OSError:
            pass
        finally:
            upstream.close()


class BoundaryProxy(socketserver.TCPServer):
    """Long-running filtering proxy service."""

    allow_reuse_address = True

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
            except (ConnectionError, TimeoutError):
                pass  # the client left or went silent; upstream errors are answered in the handler
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
