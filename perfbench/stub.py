"""Counting HTTP stub: the upstream every proxied request ends at.

Run as ``python3 stub.py``.  It binds an ephemeral loopback port, prints
``port <n>``, and serves until its stdin closes.  For each line ``count``
on stdin it prints ``count <n>``, the number of TCP connections it has
accepted, so the benchmark can prove that no blocked request reached it.
Bodies come from ``inputs.stub_body``, which the client checks against.
"""

from __future__ import annotations

import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import inputs


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.accepted = 0
        self._lock = threading.Lock()

    def verify_request(self, request, client_address) -> bool:
        with self._lock:
            self.accepted += 1
        return True


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        body = inputs.stub_body(self.path)
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


def main() -> None:
    server = _Server(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "count":
                print(f"count {server.accepted}", flush=True)
    finally:
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main()
