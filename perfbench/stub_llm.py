"""Loopback chat-completions endpoint for the benchmark's remote-LLM workload.

It answers `POST /chat/completions` after a fixed service delay with the
ranking of dxrank's in-process evidence-aware mock, so a remote run writes
the same rankings as a `mock_evidence` run with the same seed. Every
FAULT_EVERY-th distinct body of a stage gets a 503 the first time it is
seen, so the client's retry succeeds after its backoff sleep and the
artifacts do not change. Counting rather than hashing makes the number of
sleeps, and so the time they cost, the same for every seed.

The server listens on 127.0.0.1 only and handles connections on at most
`max_in_flight` threads.
"""
from __future__ import annotations

import hashlib
import json
import socketserver
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler

from dxrank.llm import derive_seed, mock_evidence_aware

# An idle keep-alive connection releases its handler thread after this long.
IDLE_TIMEOUT_S = 10
# Service time of one completion. It is short next to a hosted model's, but
# long enough that waiting, not the CPU work of client and stub on the same
# cores, makes up most of a call, so that a call's time stays steady when
# the host's CPU speed drifts.
DELAY_S = 0.030
# About 1% of first requests fail with a 503, as a busy endpoint's would.
FAULT_EVERY = 50

COUNT_NAMES = ("stub.requests", "stub.connections", "stub.requests_per_connection",
               "stub.max_in_flight", "stub.status_503")


class StubLlm:
    """The endpoint plus the counters behind the `stub.*` metrics."""

    def __init__(self, llm_seed: int, max_in_flight: int):
        self.llm_seed = llm_seed
        self._lock = threading.Lock()
        self._seen: set[bytes] = set()  # sha256 of the bodies seen this stage
        self.reset_counts()
        self._pool = ThreadPoolExecutor(max_workers=max_in_flight,
                                        thread_name_prefix="stub")
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="stub-accept", daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._pool.shutdown(wait=True)
        self._thread.join(timeout=IDLE_TIMEOUT_S)

    def __enter__(self) -> StubLlm:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def begin_stage(self) -> None:
        """Forget which bodies were seen, so the next stage faults afresh."""
        with self._lock:
            self._seen.clear()

    def reset_counts(self) -> None:
        with self._lock:
            self.requests = 0
            self.connections = 0
            self.max_in_flight = 0
            self.statuses: Counter[int] = Counter()
            self._in_flight = 0

    def counts(self) -> dict[str, float]:
        with self._lock:
            per_connection = self.requests / self.connections if self.connections else 0.0
            return dict(zip(COUNT_NAMES, (
                self.requests, self.connections, per_connection,
                self.max_in_flight, self.statuses[503])))

    def _accepted(self, handle, request, client_address) -> None:
        with self._lock:
            self.connections += 1
        self._pool.submit(handle, request, client_address)

    def serve(self, body: bytes) -> tuple[int, bytes]:
        key = hashlib.sha256(body).digest()
        with self._lock:
            self.requests += 1
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
            ordinal = 0 if key in self._seen else len(self._seen) + 1
            self._seen.add(key)
        status = 500
        try:
            time.sleep(DELAY_S)
            status = 503 if ordinal and ordinal % FAULT_EVERY == 0 else 200
            if status != 200:
                return status, b"{}"
            prompt = json.loads(body)["messages"][0]["content"]
            text = mock_evidence_aware(prompt, derive_seed(self.llm_seed, prompt))
            reply = {"choices": [{"message": {"role": "assistant", "content": text}}]}
            return status, json.dumps(reply).encode("utf-8")
        finally:
            with self._lock:
                self._in_flight -= 1
                self.statuses[status] += 1


class _Server(socketserver.TCPServer):
    allow_reuse_address = True
    stub: StubLlm

    def process_request(self, request, client_address):
        self.stub._accepted(self._handle, request, client_address)

    def _handle(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # Headers and body go out in two writes; with Nagle on, a kept-alive
    # connection would hold the body until the client's delayed ACK, 40 ms.
    disable_nagle_algorithm = True

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path.rstrip("/") != "/chat/completions":
            status, payload = 404, b"{}"
        else:
            status, payload = self.server.stub.serve(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):
        pass
