"""One kept-alive HTTP/1.1 connection to a chat-completions endpoint.

Imported only by a remote `LlmClient`, so runs on the offline mocks load no
HTTP module.
"""
from __future__ import annotations

import http.client
import select
import socket
import ssl
from urllib.parse import urlsplit


def peer_closed(sock: socket.socket) -> bool:
    """Whether the peer has closed an idle connection. Nothing is owed on an
    idle socket, so it turns readable only on the peer's FIN or reset (or on
    bytes no request asked for); either way it cannot carry the next one."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def connections(endpoint_url: str, timeout_s: float, count: int) -> tuple[Connection, ...]:
    """`count` connections to the endpoint, none opened yet. Those to an
    `https` endpoint share one context, which verifies the server against
    the system CA store and checks its host name."""
    https = urlsplit(endpoint_url).scheme == "https"
    context = ssl.create_default_context() if https else None
    return tuple(Connection(endpoint_url, timeout_s, context) for _ in range(count))


class Connection:
    """A `Transport` over one connection to the endpoint's origin, opened on
    first use and kept alive between requests (RFC 9112 §9.3).

    A connection that fails is closed, and the next request opens a fresh
    one. Before a request reuses the connection, a zero-timeout probe checks
    that the peer has not closed it while it sat idle. A peer can still close
    it between the probe and the request; a reused connection that then
    fails with a `ConnectionError` is replaced and the request sent once more
    on the fresh one (RFC 9112 §9.3.1), so a stale connection never costs
    the caller an attempt. Failures surface as `OSError`s: a malformed or
    truncated response becomes a `ConnectionError`.

    Not thread-safe: `LlmClient` gives each in-flight slot its own.
    """

    def __init__(self, endpoint_url: str, timeout_s: float,
                 context: ssl.SSLContext | None):
        parts = urlsplit(endpoint_url)
        self._https = parts.scheme == "https"
        self._host = parts.hostname
        self._port = parts.port or (443 if self._https else 80)
        self._timeout_s = timeout_s
        self._context = context
        self._conn: http.client.HTTPConnection | None = None

    def _open(self) -> http.client.HTTPConnection:
        if self._https:
            return http.client.HTTPSConnection(
                self._host, self._port, timeout=self._timeout_s, context=self._context)
        return http.client.HTTPConnection(self._host, self._port, timeout=self._timeout_s)

    def __call__(self, url: str, body: bytes, headers: dict) -> tuple[int, bytes]:
        parts = urlsplit(url)
        target = parts.path + (f"?{parts.query}" if parts.query else "")
        try:
            if self._conn is not None:
                if not peer_closed(self._conn.sock):
                    try:
                        return self._exchange(target, body, headers)
                    except ConnectionError:
                        pass
                self.close()
            self._conn = self._open()
            return self._exchange(target, body, headers)
        except http.client.HTTPException as exc:
            raise ConnectionError(f"{type(exc).__name__}: {exc}") from None

    def _exchange(self, target: str, body: bytes, headers: dict) -> tuple[int, bytes]:
        try:
            self._conn.request("POST", target, body, headers)
            response = self._conn.getresponse()
            raw = response.read()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, raw

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
