"""A localhost reviewer for the external verifier tests."""

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        with self.server.lock:
            self.server.requests.append(payload)
            self.server.inflight += 1
            self.server.inflight_max = max(self.server.inflight_max, self.server.inflight)
        try:
            reply = self.server.route(payload)
        finally:
            with self.server.lock:
                self.server.inflight -= 1
        # A reply given as bytes is sent as it is, JSON or not.
        body = reply if isinstance(reply, bytes) else json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args):
        pass


@contextmanager
def mock_reviewer(route):
    """Serve ``route(payload) -> reply``, a JSON value or the bytes of the
    body, on a free port; yields the server, which records every payload and
    the most requests in flight at once, and the endpoint URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.route = route
    server.requests = []
    server.lock = threading.Lock()
    server.inflight = 0
    server.inflight_max = 0
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/review"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)

