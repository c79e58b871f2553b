"""A chat-completions endpoint on 127.0.0.1 for tests of the remote path.

It answers as the `mock_evidence` backend would, so a remote run writes
the same rankings as a mock one, and counts the connections it accepts and
the requests it serves. It keeps the prompt of each request it is sent.
"""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from dxrank.llm import derive_seed, mock_evidence_aware

# An idle kept-alive connection releases its handler thread after this long.
IDLE_TIMEOUT_S = 5


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.endpoint.count("connections")

    def do_POST(self):
        endpoint = self.server.endpoint
        body = self.rfile.read(int(self.headers["Content-Length"]))
        prompt = json.loads(body)["messages"][0]["content"]
        endpoint.count("requests", prompt)
        status = endpoint.status
        if status == 200:
            text = mock_evidence_aware(prompt, derive_seed(endpoint.seed, prompt))
            payload = json.dumps({"choices": [{"message": {"content": text}}]}).encode()
        else:
            payload = b"{}"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        if endpoint.close_each:  # hang up without having said `Connection: close`
            self.close_connection = True

    def log_message(self, format, *args):
        pass


class LoopbackLlm:
    """Serves until its `with` block ends. With `close_each`, it closes the
    connection after every response. Every request is answered with
    `status`, which a test may change between requests; only a 200 carries
    a completion."""

    def __init__(self, seed: int = 0, close_each: bool = False):
        self.seed = seed
        self.close_each = close_each
        self.status = 200
        self.connections = 0
        self.requests = 0
        self.prompts: list[str] = []
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.daemon_threads = True
        self._server.endpoint = self
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,),
                                        daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def count(self, name: str, prompt: str | None = None) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)
            if prompt is not None:
                self.prompts.append(prompt)

    def __enter__(self) -> LoopbackLlm:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=IDLE_TIMEOUT_S)
        assert not self._thread.is_alive(), "loopback server did not stop"
