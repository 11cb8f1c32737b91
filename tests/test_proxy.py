"""Integration tests for the filtering forward proxy.

A counting stub server stands in for the local target; the zero-leak
checks assert that blocked requests never open a connection to it.
"""

import http.client
import json
import socket
import threading
import time
import types

import pytest

from webshield import proxy as proxy_module
from webshield.nbs import AddressClass, NbsMode
from webshield.proxy import (
    BLOCK_REASON_HEADER,
    MAX_BODY_BYTES,
    DecisionLog,
    ProxyConfig,
    run_proxy,
)

# The proxy owns a listening socket, an open log file and a serve thread
# for its whole life; a test that leaves one of them to the garbage
# collector fails here instead of warning.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


class CountingStub:
    """Minimal HTTP server on loopback that counts accepted connections."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.connections = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

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
                body = b"stub-ok"
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\nConnection: close\r\n\r\n"
                    + body
                )
            except OSError:
                pass
            finally:
                conn.close()

    def close(self):
        self.sock.close()


@pytest.fixture
def stub():
    server = CountingStub()
    yield server
    server.close()


def proxy_request(proxy_addr, url, method="GET"):
    conn = http.client.HTTPConnection(*proxy_addr, timeout=10)
    try:
        conn.request(method, url)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestPreResolveMode:
    def test_loopback_target_blocked_with_zero_bytes_sent(self, stub, tmp_path):
        log = tmp_path / "decisions.jsonl"
        proxy = run_proxy(ProxyConfig(mode=NbsMode.PRE_RESOLVE, log_path=log))
        try:
            status, headers, _ = proxy_request(
                proxy.address, f"http://127.0.0.1:{stub.port}/probe"
            )
            assert status == 403
            assert BLOCK_REASON_HEADER in headers
            assert stub.connections == 0
        finally:
            proxy.stop()
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert any(r["decision"] == "Block" and r["class"] == "loopback" for r in records)

    def test_hostname_resolving_to_loopback_blocked(self, stub):
        proxy = run_proxy(ProxyConfig(mode=NbsMode.PRE_RESOLVE))
        try:
            status, _, _ = proxy_request(
                proxy.address, f"http://localhost:{stub.port}/probe"
            )
            assert status == 403
            assert stub.connections == 0
        finally:
            proxy.stop()

    def test_connect_tunnel_blocked(self, stub):
        proxy = run_proxy(ProxyConfig(mode=NbsMode.PRE_RESOLVE))
        try:
            conn = http.client.HTTPConnection(*proxy.address, timeout=10)
            conn.set_tunnel("127.0.0.1", stub.port)
            with pytest.raises(OSError):
                conn.request("GET", "/")
            conn.close()
            assert stub.connections == 0
        finally:
            proxy.stop()

    def test_non_crossing_request_passes_through(self, stub):
        proxy = run_proxy(
            ProxyConfig(mode=NbsMode.PRE_RESOLVE, origin_class=AddressClass.LOOPBACK)
        )
        try:
            status, _, body = proxy_request(
                proxy.address, f"http://127.0.0.1:{stub.port}/ok"
            )
            assert status == 200
            assert body == b"stub-ok"
            assert stub.connections == 1
        finally:
            proxy.stop()

    def test_connect_tunnel_allowed_when_not_crossing(self, stub):
        proxy = run_proxy(
            ProxyConfig(mode=NbsMode.PRE_RESOLVE, origin_class=AddressClass.LOOPBACK)
        )
        try:
            conn = http.client.HTTPConnection(*proxy.address, timeout=10)
            conn.set_tunnel("127.0.0.1", stub.port)
            conn.request("GET", "/tunnel")
            response = conn.getresponse()
            assert response.status == 200
            assert response.read() == b"stub-ok"
            conn.close()
        finally:
            proxy.stop()

    def test_unresolvable_host_is_bad_gateway(self):
        proxy = run_proxy(ProxyConfig(mode=NbsMode.PRE_RESOLVE))
        try:
            status, _, body = proxy_request(
                proxy.address, "http://no-such-host.invalid/x"
            )
            assert status == 502
            assert b"resolver failure" in body
        finally:
            proxy.stop()

    def test_upstream_connect_failure_is_bad_gateway(self):
        # a loopback port with no listener, reached from a loopback origin
        closed = socket.socket()
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        closed.close()
        proxy = run_proxy(
            ProxyConfig(mode=NbsMode.PRE_RESOLVE, origin_class=AddressClass.LOOPBACK)
        )
        try:
            status, _, body = proxy_request(proxy.address, f"http://127.0.0.1:{port}/x")
            assert status == 502
            assert b"upstream connection failed" in body
        finally:
            proxy.stop()

    def test_one_crossing_address_blocks_the_host(self, stub, mixed_resolver):
        proxy = run_proxy(ProxyConfig(mode=NbsMode.PRE_RESOLVE))
        try:
            status, headers, _ = proxy_request(
                proxy.address, f"http://{mixed_resolver}:{stub.port}/probe"
            )
            assert status == 403
            assert "loopback" in headers[BLOCK_REASON_HEADER]
            assert stub.connections == 0
        finally:
            proxy.stop()

    def test_nat64_loopback_tunnel_blocked(self, stub):
        proxy = run_proxy(ProxyConfig(mode=NbsMode.PRE_RESOLVE))
        try:
            reply = raw_request(
                proxy.address, f"CONNECT [64:ff9b::7f00:1]:{stub.port} HTTP/1.1\r\n\r\n"
            )
            assert reply.startswith(b"HTTP/1.1 403 ")
            head = reply.split(b"\r\n\r\n", 1)[0].decode()
            assert f"{BLOCK_REASON_HEADER}: " in head
            assert "into loopback target" in head
            assert stub.connections == 0
        finally:
            proxy.stop()


class TestLearnOnReplyMode:
    def test_first_passes_then_blocked(self, stub):
        proxy = run_proxy(ProxyConfig(mode=NbsMode.LEARN_ON_REPLY))
        try:
            status1, _, body1 = proxy_request(
                proxy.address, f"http://localhost:{stub.port}/one"
            )
            assert status1 == 200
            assert body1 == b"stub-ok"
            assert stub.connections == 1
            status2, headers2, _ = proxy_request(
                proxy.address, f"http://localhost:{stub.port}/two"
            )
            assert status2 == 403
            assert stub.connections == 1
            assert "loopback" in headers2[BLOCK_REASON_HEADER]
        finally:
            proxy.stop()

    def test_first_contact_logged_with_unknown_class(self, stub, tmp_path):
        log = tmp_path / "learn.jsonl"
        proxy = run_proxy(ProxyConfig(mode=NbsMode.LEARN_ON_REPLY, log_path=log))
        try:
            status, _, _ = proxy_request(proxy.address, f"http://localhost:{stub.port}/one")
            assert status == 200
        finally:
            proxy.stop()
        record = json.loads(log.read_text().splitlines()[0])
        assert (record["host"], record["class"], record["decision"]) == (
            "localhost", "unknown", "AllowAndLearn"
        )

    def test_literal_ip_blocked_without_learning_phase(self, stub):
        proxy = run_proxy(ProxyConfig(mode=NbsMode.LEARN_ON_REPLY))
        try:
            status, _, _ = proxy_request(
                proxy.address, f"http://127.0.0.1:{stub.port}/direct"
            )
            assert status == 403
            assert stub.connections == 0
        finally:
            proxy.stop()


def raw_request(proxy_addr, head: str, timeout=2.0) -> bytes:
    """Send one hand-written request head; return everything until close."""
    with socket.create_connection(proxy_addr, timeout=timeout) as sock:
        sock.sendall(head.encode())
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestMalformedRequests:
    @pytest.mark.parametrize("head,expected", [
        ("GET /relative HTTP/1.1\r\n\r\n", 400),
        ("GET http://127.0.0.1:abc/ HTTP/1.1\r\n\r\n", 400),
        ("GET http://127.0.0.1:0/ HTTP/1.1\r\n\r\n", 400),
        ("GET http://127.0.0.1:70000/ HTTP/1.1\r\n\r\n", 400),
        ("GET http://[::1]:abc/ HTTP/1.1\r\n\r\n", 400),
        ("CONNECT 127.0.0.1:abc HTTP/1.1\r\n\r\n", 400),
        ("CONNECT 127.0.0.1:99999 HTTP/1.1\r\n\r\n", 400),
        ("CONNECT ::1:{port} HTTP/1.1\r\n\r\n", 400),
        ("POST http://127.0.0.1:{port}/ HTTP/1.1\r\nContent-Length: zz\r\n\r\n", 400),
        ("POST http://127.0.0.1:{port}/ HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        ("POST http://127.0.0.1:{port}/ HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n",
         413),
    ], ids=["origin-form", "port-abc", "port-0", "port-70000", "v6-port-abc",
            "connect-port-abc", "connect-port-99999", "connect-bare-v6", "length-zz",
            "length-negative", "length-huge"])
    def test_bad_request_answered_4xx_and_proxy_keeps_serving(
        self, stub, tmp_path, head, expected
    ):
        log = tmp_path / "decisions.jsonl"
        # a loopback origin would let a well-formed request reach the stub
        proxy = run_proxy(ProxyConfig(
            mode=NbsMode.PRE_RESOLVE, origin_class=AddressClass.LOOPBACK, log_path=log
        ))
        try:
            reply = raw_request(proxy.address, head.format(port=stub.port))
            assert reply.startswith(f"HTTP/1.1 {expected} ".encode())
            assert stub.connections == 0
            assert log.read_text() == ""
            status, _, body = proxy_request(proxy.address, f"http://127.0.0.1:{stub.port}/next")
            assert (status, body) == (200, b"stub-ok")
        finally:
            proxy.stop()

    def test_valid_body_still_forwarded(self, stub):
        proxy = run_proxy(
            ProxyConfig(mode=NbsMode.PRE_RESOLVE, origin_class=AddressClass.LOOPBACK)
        )
        try:
            reply = raw_request(
                proxy.address,
                f"POST http://127.0.0.1:{stub.port}/ HTTP/1.1\r\n"
                "Content-Length: 3 \r\n\r\nabc",
            )
            assert reply.startswith(b"HTTP/1.1 200 ")
            assert stub.connections == 1
        finally:
            proxy.stop()

    def test_body_at_the_bound_reaches_the_target(self, stub):
        proxy = run_proxy(
            ProxyConfig(mode=NbsMode.PRE_RESOLVE, origin_class=AddressClass.LOOPBACK)
        )
        try:
            with socket.create_connection(proxy.address, timeout=10) as sock:
                sock.sendall(
                    f"POST http://127.0.0.1:{stub.port}/ HTTP/1.1\r\n"
                    f"Content-Length: {MAX_BODY_BYTES}\r\n\r\n".encode()
                    + bytes(MAX_BODY_BYTES)
                )
                # the stub reads only the first 64 KiB before it replies and
                # closes, so the relay may end in 200 or 502; never in 413
                assert not sock.recv(65536).startswith(b"HTTP/1.1 413 ")
            assert stub.connections == 1
        finally:
            proxy.stop()


class TestDecisionLog:
    def test_blocks_coalesce_within_window(self, stub, tmp_path):
        log = tmp_path / "coalesced.jsonl"
        proxy = run_proxy(ProxyConfig(mode=NbsMode.PRE_RESOLVE, log_path=log))
        try:
            for _ in range(3):
                status, _, _ = proxy_request(
                    proxy.address, f"http://127.0.0.1:{stub.port}/spam"
                )
                assert status == 403
        finally:
            proxy.stop()  # flushes pending windows
        records = [json.loads(line) for line in log.read_text().splitlines()]
        blocks = [r for r in records if r["decision"] == "Block"]
        assert len(blocks) == 1
        assert blocks[0]["coalesced"] == 3
        assert blocks[0]["host"] == "127.0.0.1"

    def test_sweeper_flushes_expired_window(self, stub, tmp_path, monkeypatch):
        log = tmp_path / "swept.jsonl"
        monkeypatch.setattr(proxy_module, "COALESCE_WINDOW_S", 0.6)
        proxy = run_proxy(ProxyConfig(mode=NbsMode.PRE_RESOLVE, log_path=log))
        try:
            status, _, _ = proxy_request(
                proxy.address, f"http://127.0.0.1:{stub.port}/once"
            )
            assert status == 403
            deadline = time.time() + 5.0
            while time.time() < deadline:
                lines = [l for l in log.read_text().splitlines() if l]
                if any(json.loads(l)["decision"] == "Block" for l in lines):
                    break
                time.sleep(0.2)
            else:
                pytest.fail("sweeper never flushed the block window")
        finally:
            proxy.stop()

    def test_log_line_schema(self, stub, tmp_path):
        log = tmp_path / "schema.jsonl"
        proxy = run_proxy(
            ProxyConfig(
                mode=NbsMode.PRE_RESOLVE,
                origin_class=AddressClass.LOOPBACK,
                log_path=log,
            )
        )
        try:
            proxy_request(proxy.address, f"http://127.0.0.1:{stub.port}/ok")
        finally:
            proxy.stop()
        record = json.loads(log.read_text().splitlines()[0])
        assert set(record) == {"t", "host", "class", "decision", "reason", "coalesced"}
        assert record["decision"] == "Allow"
        assert record["coalesced"] == 1

    def test_flush_writes_only_windows_open_that_long(self, tmp_path, monkeypatch):
        clock = [100.0]
        fake_time = types.SimpleNamespace(monotonic=lambda: clock[0])
        monkeypatch.setattr(proxy_module, "time", fake_time)
        path = tmp_path / "aged.jsonl"
        log = DecisionLog(path)
        try:
            log.log("old.example", "loopback", "Block", "r")
            clock[0] += 5.0
            log.log("new.example", "loopback", "Block", "r")
            log.log("new.example", "loopback", "Block", "r")
            clock[0] += 1.0
            log.flush(3.0)
            hosts = [json.loads(l)["host"] for l in path.read_text().splitlines()]
            assert hosts == ["old.example"]
            log.flush()
            records = [json.loads(l) for l in path.read_text().splitlines()]
            assert [(r["host"], r["coalesced"]) for r in records] == [
                ("old.example", 1), ("new.example", 2)
            ]
        finally:
            log.close()

    def test_file_holds_every_line_while_open(self, tmp_path):
        path = tmp_path / "live.jsonl"
        log = DecisionLog(path)
        try:
            for i in range(5):
                log.log(f"h{i}.example", "public", "Allow", "")
            lines = path.read_text().splitlines()
            assert [json.loads(l)["host"] for l in lines] == [f"h{i}.example" for i in range(5)]
        finally:
            log.close()

    def test_line_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "closed.jsonl"
        log = DecisionLog(path)
        log.log("blocked.example", "loopback", "Block", "r")
        log.close()  # writes the open window
        log.log("late.example", "public", "Allow", "")
        log.log("late.example", "loopback", "Block", "r")
        log.flush()
        log.close()
        hosts = [json.loads(l)["host"] for l in path.read_text().splitlines()]
        assert hosts == ["blocked.example"]


def test_proxy_runs_one_thread_of_its_own_and_stops_it():
    before = set(threading.enumerate())
    proxy = run_proxy(ProxyConfig(mode=NbsMode.PRE_RESOLVE))
    try:
        assert len(set(threading.enumerate()) - before) == 1  # the serve thread
    finally:
        started = time.monotonic()
        proxy.stop()
        elapsed = time.monotonic() - started
    assert set(threading.enumerate()) - before == set()
    assert elapsed < 1.0  # shutdown polls every 0.05 s


def test_unopenable_log_closes_the_bound_socket(tmp_path):
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):  # a leaked socket would raise ResourceWarning
        run_proxy(ProxyConfig(log_path=tmp_path / "file" / "decisions.jsonl"))
