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


STUB_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 7\r\nConnection: close\r\n\r\nstub-ok"


class CountingStub:
    """Minimal HTTP server on loopback that counts accepted connections.

    On each connection it records the request head it reads, then sends
    ``parts`` and closes, waiting for ``release`` between parts.
    """

    def __init__(self, *parts: bytes):
        self.parts = parts
        self.received = b""
        self.release = threading.Event()
        self.sock = socket.create_server(("127.0.0.1", 0))
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
            with conn:
                try:
                    conn.settimeout(5)
                    head = b""
                    while b"\r\n\r\n" not in head and (data := conn.recv(65536)):
                        head += data
                    self.received += head
                    for i, part in enumerate(self.parts):
                        if i:
                            self.release.wait(5)
                        conn.sendall(part)
                except OSError:
                    pass

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.sock.close()
        self._thread.join(timeout=5)


@pytest.fixture
def stub():
    server = CountingStub(STUB_OK)
    yield server
    server.close()


@pytest.fixture
def scripted():
    """Start a CountingStub that answers the given parts; closed after the test."""
    stubs = []

    def start(*parts: bytes) -> CountingStub:
        stubs.append(CountingStub(*parts))
        return stubs[-1]

    yield start
    for server in stubs:
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

    @pytest.mark.parametrize("head", [
        "GET http://rebind.example:{port}/secret HTTP/1.1\r\n\r\n",
        "CONNECT rebind.example:{port} HTTP/1.1\r\n\r\n",
    ], ids=["http", "connect"])
    def test_known_host_that_rebinds_inward_is_denied_before_a_byte(
        self, scripted, tmp_path, monkeypatch, head
    ):
        target = scripted(b"HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nsecret")
        real = socket.getaddrinfo

        def rebound(host, port, *args, **kwargs):  # learned public, now loopback
            if host == "rebind.example":
                return [(socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", port))]
            return real(host, port, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", rebound)
        log = tmp_path / "rebind.jsonl"
        proxy = run_proxy(ProxyConfig(mode=NbsMode.LEARN_ON_REPLY, log_path=log))
        try:
            proxy.cache.learn("rebind.example", AddressClass.PUBLIC)
            reply = raw_request(proxy.address, head.format(port=target.port))
            assert reply.startswith(b"HTTP/1.1 403 ")
            assert b"into loopback target 'rebind.example'" in reply
            assert proxy.cache.lookup("rebind.example") is AddressClass.LOOPBACK
        finally:
            proxy.stop()
        assert target.received == b""
        assert target.connections == 0
        last = json.loads(log.read_text().splitlines()[-1])
        assert (last["host"], last["class"], last["decision"]) == (
            "rebind.example", "loopback", "Block"
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
        ("GET http://127.0.0.1:{port}/a\x01b HTTP/1.1\r\n\r\n", 400),
        ("GET http://[]:{port}/ HTTP/1.1\r\n\r\n", 400),
        ("GET http://:{port}/ HTTP/1.1\r\n\r\n", 400),
        ("CONNECT :{port} HTTP/1.1\r\n\r\n", 400),
        ("CONNECT [::1 HTTP/1.1\r\n\r\n", 400),
        ("POST http://127.0.0.1:{port}/ HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         "5\r\nhello\r\n0\r\n\r\n", 411),
    ], ids=["origin-form", "port-abc", "port-0", "port-70000", "v6-port-abc",
            "connect-port-abc", "connect-port-99999", "connect-bare-v6", "length-zz",
            "length-negative", "length-huge", "path-control-char", "empty-v6-host",
            "empty-host", "connect-empty-host", "connect-unclosed-bracket", "chunked-body"])
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

    @pytest.mark.parametrize("mode", list(NbsMode))
    @pytest.mark.parametrize("head", [
        "GET http://x..y/ HTTP/1.1\r\n\r\n",
        "CONNECT x..y:443 HTTP/1.1\r\n\r\n",
        "GET http://.example/ HTTP/1.1\r\n\r\n",
        f"CONNECT {'a' * 64}.com:443 HTTP/1.1\r\n\r\n",
    ], ids=["get-empty-label", "connect-empty-label", "get-leading-dot", "connect-long-label"])
    def test_host_that_is_not_a_dns_name_gets_400(self, stub, tmp_path, capfd, mode, head):
        log = tmp_path / "decisions.jsonl"
        proxy = run_proxy(
            ProxyConfig(mode=mode, origin_class=AddressClass.LOOPBACK, log_path=log)
        )
        try:
            reply = raw_request(proxy.address, head)
        finally:
            proxy.stop()
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert stub.connections == 0
        assert log.read_text() == ""
        assert "Traceback" not in capfd.readouterr().err

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


class TestRelay:
    """Plain HTTP replies reach the client as the upstream sent them."""

    @staticmethod
    def _proxy():
        return run_proxy(
            ProxyConfig(mode=NbsMode.PRE_RESOLVE, origin_class=AddressClass.LOOPBACK)
        )

    @pytest.mark.parametrize("reply", [
        b"HELLO WORLD\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\nbody",
        b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-%d: v\r\n" % i for i in range(150))
        + b"\r\nbody",
        b"HTTP/1.1 200 OK\r\nX-Upstream: 1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n0\r\n\r\n",
    ], ids=["not-http", "70k-header-line", "150-headers", "chunked"])
    def test_reply_relayed_verbatim_and_proxy_keeps_serving(self, scripted, stub, reply):
        target = scripted(reply)
        proxy = self._proxy()
        try:
            got = raw_request(
                proxy.address, f"GET http://127.0.0.1:{target.port}/ HTTP/1.1\r\n\r\n"
            )
            assert got == reply
            status, _, body = proxy_request(proxy.address, f"http://127.0.0.1:{stub.port}/next")
            assert (status, body) == (200, b"stub-ok")
        finally:
            proxy.stop()

    def test_upstream_closing_without_a_byte_is_bad_gateway(self, scripted):
        target = scripted()
        proxy = self._proxy()
        try:
            reply = raw_request(
                proxy.address, f"GET http://127.0.0.1:{target.port}/ HTTP/1.1\r\n\r\n"
            )
            assert reply.startswith(b"HTTP/1.1 502 ")
            assert b"upstream connection failed" in reply
        finally:
            proxy.stop()

    def test_reply_streams_before_the_upstream_finishes(self, scripted):
        head = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nfirst\r\n"
        target = scripted(head, b"0\r\n\r\n")
        proxy = self._proxy()
        try:
            with socket.create_connection(proxy.address, timeout=2) as sock:
                sock.sendall(f"GET http://127.0.0.1:{target.port}/ HTTP/1.1\r\n\r\n".encode())
                got = b""
                while len(got) < len(head) and (chunk := sock.recv(65536)):
                    got += chunk  # a proxy that waits for the end times out here
                assert got == head
                target.release.set()
                while chunk := sock.recv(65536):
                    got += chunk
            assert got == head + b"0\r\n\r\n"
        finally:
            target.release.set()
            proxy.stop()

    def test_request_head_rewritten_for_the_origin(self, scripted):
        target = scripted(b"HTTP/1.1 204 No Content\r\n\r\n")
        proxy = self._proxy()
        try:
            raw_request(
                proxy.address,
                f"GET http://127.0.0.1:{target.port}/p?q=1#frag HTTP/1.1\r\n"
                "X-Client: 1\r\nProxy-Connection: keep-alive\r\nConnection: keep-alive\r\n\r\n",
            )
        finally:
            proxy.stop()
        assert target.received == (
            f"GET /p?q=1 HTTP/1.1\r\nX-Client: 1\r\nHost: 127.0.0.1:{target.port}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()


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


def test_listens_on_ipv6_loopback(stub, ipv6_loopback):
    proxy = run_proxy(ProxyConfig(listen_host=ipv6_loopback))
    try:
        assert proxy.address[0] == ipv6_loopback
        status, _, _ = proxy_request(proxy.address, f"http://127.0.0.1:{stub.port}/probe")
        assert status == 403
        assert stub.connections == 0
    finally:
        proxy.stop()
