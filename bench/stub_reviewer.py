"""Stub external reviewer for ``drivesql verify --verifier``.

Speaks the ``ExternalClient`` protocol: each POST carries one pair as JSON
and gets back ``{"verdict": "keep" | "drop" | "revise", ...}``. The verdict
is a fixed function of ``pair_id``, so a verify report can be checked
against it. Every reply waits a fixed delay first, modelling a remote
reviewer's latency (``DELAY_MS``; see ``bench/README.md`` for how it was
chosen).

Run as ``python3 bench/stub_reviewer.py``. The first line on
standard output is ``port <n>``. On SIGTERM the server stops and prints one
JSON line: requests served, the verdict tally, the most requests in flight
at once, and the busy time (seconds with at least one request in flight).
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_MS = 2.0


def verdict_for(pair_id: str) -> str:
    """One in eight pairs is dropped, one in eight revised, the rest kept."""
    bucket = hashlib.sha256(pair_id.encode("utf-8")).digest()[0] % 8
    return "drop" if bucket == 0 else "revise" if bucket == 1 else "keep"


class ReviewerStats:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.tally = {"keep": 0, "drop": 0, "revise": 0, "error": 0}
        self.served = 0
        self.inflight = 0
        self.inflight_max = 0
        self.busy_s = 0.0
        self._busy_since = 0.0

    def enter(self) -> None:
        with self._lock:
            if self.inflight == 0:
                self._busy_since = time.perf_counter()
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)

    def leave(self, verdict: str) -> None:
        with self._lock:
            self.inflight -= 1
            if self.inflight == 0:
                self.busy_s += time.perf_counter() - self._busy_since
            self.served += 1
            self.tally[verdict] += 1

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "served": self.served,
                "tally": dict(self.tally),
                "inflight_max": self.inflight_max,
                "busy_s": self.busy_s,
            }


def make_server(delay_s: float, stats: ReviewerStats) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:  # noqa: N802 - http.server naming
            stats.enter()
            try:
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length))
                verdict = verdict_for(str(payload["pair_id"]))
                reply = {"verdict": verdict}
                if verdict == "drop":
                    reply["reason"] = "dropped by stub reviewer"
                elif verdict == "revise":
                    reply["revised_response"] = str(payload["response"])
            except (ValueError, KeyError, TypeError):
                verdict, reply = "error", None
            time.sleep(delay_s)
            # Leave before replying: once the reply is out the client may
            # send its next request, which must not count as overlapping.
            stats.leave(verdict)
            if reply is None:
                self.send_error(400, "expected a JSON pair with pair_id and response")
                return
            body = json.dumps(reply).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> None:
    stats = ReviewerStats()
    server = make_server(DELAY_MS / 1000.0, stats)

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
        print(json.dumps(stats.as_dict()), flush=True)


if __name__ == "__main__":
    sys.exit(main())
