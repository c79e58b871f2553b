"""Completion interface: a remote chat-completions client with retries,
backoff, one kept-alive connection per in-flight slot and an on-disk cache
of temperature-0 completions, plus two deterministic offline mocks (an echo
that preserves candidate order, and an evidence-aware ranker used for
desk-scale end-to-end runs).
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import queue
import re
import threading
import time
from pathlib import Path
from typing import Callable

from . import InputError, record
from .config import LLM_BACKENDS, LlmConfig
from .prompting import CANDIDATES_TITLE_OVERALL, HISTORY_TITLE_PRIORITIZED
from .rng import Pcg64

# Each offline backend's answer to (prompt, per-prompt seed). The lambdas
# look the mocks up at call time, so they are defined further down.
MOCKS: dict[str, Callable[[str, int], str]] = {
    "mock_echo": lambda prompt, seed: mock_echo(prompt),
    "mock_evidence": lambda prompt, seed: mock_evidence_aware(prompt, seed),
}

# Retry schedule: base delay doubles per attempt.
BACKOFF_BASE_S = 0.25


class LlmError(RuntimeError):
    pass


class LlmTransportError(LlmError):
    """Unreachable endpoint, exhausted retries, or a non-retryable status."""


class LlmProtocolError(LlmError):
    """Response arrived but is not a usable chat completion."""


@record(frozen=True)
class CompletionResult:
    text: str
    latency_ms: int
    attempt_count: int
    backend_tag: str


Transport = Callable[[str, bytes, dict], tuple[int, bytes]]


def _temperature(cfg: LlmConfig, temperature: float | None) -> float:
    """The temperature a request is sent with: an explicit one wins."""
    return cfg.temperature if temperature is None else temperature


def request_body(prompt: str, cfg: LlmConfig, temperature: float | None = None) -> bytes:
    """Canonical chat-completion body; byte-stable for identical inputs."""
    payload = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": _temperature(cfg, temperature),
        "max_tokens": cfg.max_tokens,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


class LlmClient:
    """Thread-safe completion client with at most cfg.max_in_flight remote
    requests in flight.

    A request holds one of cfg.max_in_flight slots from sending to reading
    its response. Each slot owns one kept-alive connection, opened on first
    use, so requests in flight and open connections are one number. The
    transport is injectable for tests: it then serves every slot, and must
    return (status, body) or raise an OSError (TimeoutError,
    ConnectionError) for a retryable failure. Closing the client, or leaving
    its `with` block, closes its connections. A remote client reads the
    token that cfg.api_key_env names once, here; a named variable that is
    unset or empty is an InputError.

    `complete` asks the backend; `ask` answers from the completion cache
    that `cache_in` sets up when it can, and asks the backend otherwise.
    `fetched` counts the completions the endpoint answered, and `from_cache`
    those `ask` read from the cache. `remote` says whether cfg.backend sends
    requests; the mocks answer in process, with no I/O.
    """

    def __init__(
        self,
        cfg: LlmConfig,
        transport: Transport | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self._sleep = sleeper
        self._connections = ()
        self._slots: queue.SimpleQueue[Transport] = queue.SimpleQueue()
        self._headers = {"Content-Type": "application/json"}
        self._cache_dir: Path | None = None
        self._count_lock = threading.Lock()
        self.fetched = 0
        self.from_cache = 0
        self._mock = MOCKS.get(cfg.backend)
        self.remote = self._mock is None
        if not self.remote:
            return
        if cfg.api_key_env:
            token = os.environ.get(cfg.api_key_env)
            if not token:
                raise InputError(f"llm: api_key_env names {cfg.api_key_env!r}, "
                                 "which is not set in the environment")
            self._headers["Authorization"] = f"Bearer {token}"
        self._url = cfg.endpoint_url.rstrip("/") + "/chat/completions"
        if transport is None:
            # Only the remote backend sends requests, so only it pays for
            # importing the HTTP modules.
            from .connection import connections

            self._connections = connections(
                cfg.endpoint_url, cfg.timeout_ms / 1000.0, cfg.max_in_flight)
        for slot in self._connections or (transport,) * cfg.max_in_flight:
            self._slots.put(slot)

    def cache_in(self, directory: Path) -> None:
        """Let `ask` answer remote requests sent before from a completion
        cache in `directory`, which is created on the first store.

        Only a request whose effective temperature is 0 is cached. Its entry
        is `<sha256 of URL and body>.json`, holding `{"text": ...}`, so the
        key covers every byte the endpoint receives except the bearer token,
        which no entry holds. An entry is written only after a 200 with a
        usable choice, through a temporary file per process and thread and
        `os.replace`, so commands sharing the directory never read a partial
        one. An entry that cannot be read or holds no string `text` is a
        miss, and is overwritten; a failed write loses only the entry. The
        mocks never touch the directory.
        """
        self._cache_dir = directory

    def _count(self, name: str) -> None:
        with self._count_lock:
            setattr(self, name, getattr(self, name) + 1)

    def close(self) -> None:
        """Close every connection; call it with no request in flight."""
        for connection in self._connections:
            connection.close()

    def __enter__(self) -> LlmClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def complete(self, prompt: str, temperature: float | None = None,
                 sample_tag: str = "") -> CompletionResult:
        """One completion. `sample_tag` diversifies mock sampling (used for
        self-consistency draws) without affecting the remote path."""
        if self.remote:
            return self._complete_remote(prompt, temperature)
        seed = derive_seed(self.cfg.seed, prompt, sample_tag)
        return CompletionResult(text=self._mock(prompt, seed), latency_ms=0,
                                attempt_count=1, backend_tag=self.cfg.backend)

    def ask(self, prompt: str, temperature: float | None = None,
            sample_tag: str = "") -> CompletionResult:
        """`complete`, read from the completion cache instead when the same
        request was answered before; a new cacheable answer is stored."""
        entry = self._cache_entry(prompt, temperature)
        if entry is not None:
            text = _read_entry(entry)
            if text is not None:
                self._count("from_cache")
                return CompletionResult(text=text, latency_ms=0, attempt_count=0,
                                        backend_tag="cache")
        result = self.complete(prompt, temperature, sample_tag)
        if entry is not None:
            _write_entry(entry, result.text)
        return result

    def _cache_entry(self, prompt: str, temperature: float | None) -> Path | None:
        """The cache file of a remote temperature-0 request, or None for a
        request that is not cached."""
        cfg = self.cfg
        if (self._cache_dir is None or not self.remote
                or _temperature(cfg, temperature) != 0):
            return None
        body = request_body(prompt, cfg, temperature)
        key = hashlib.sha256(self._url.encode("utf-8") + b"\n" + body).hexdigest()
        return self._cache_dir / f"{key}.json"

    def _complete_remote(self, prompt: str,
                         temperature: float | None) -> CompletionResult:
        cfg = self.cfg
        body = request_body(prompt, cfg, temperature)
        start = time.monotonic()
        last_failure = ""
        for attempt in range(1, cfg.max_retries + 2):
            # The slot goes back before the answer is parsed or a backoff
            # slept, so another request can use it meanwhile.
            slot = self._slots.get()
            try:
                status, raw = slot(self._url, body, self._headers)
            except OSError as exc:
                last_failure = f"{type(exc).__name__}: {exc}"
                status = None
            finally:
                self._slots.put(slot)
            if status == 200:
                text = _extract_choice(raw)
                self._count("fetched")
                latency = int((time.monotonic() - start) * 1000)
                return CompletionResult(
                    text=text, latency_ms=latency, attempt_count=attempt,
                    backend_tag="remote",
                )
            if status is not None:
                # 429 Too Many Requests and 5xx are worth another attempt.
                if status < 500 and status != 429:
                    raise LlmTransportError(f"endpoint returned status {status}")
                last_failure = f"status {status}"
            if attempt <= cfg.max_retries:
                self._sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
        raise LlmTransportError(
            f"gave up after {cfg.max_retries + 1} attempts ({last_failure})"
        )


def _extract_choice(raw: bytes) -> str:
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LlmProtocolError(f"non-JSON response: {exc}") from None
    try:
        text = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        text = None
    if not isinstance(text, str):
        raise LlmProtocolError("response has no usable choice")
    return text


def _read_entry(path: Path) -> str | None:
    """The text of a completion cache entry, or None for a miss."""
    try:
        entry = json.loads(path.read_bytes())
    # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep.
    except (OSError, ValueError, RecursionError):
        return None
    text = entry.get("text") if isinstance(entry, dict) else None
    return text if isinstance(text, str) else None


def _write_entry(path: Path, text: str) -> None:
    """Store a completion cache entry; a failed write stores nothing."""
    temp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        temp.write_text(json.dumps({"text": text}), encoding="utf-8")
        os.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            temp.unlink()


# ---------------------------------------------------------------------------
# Mocks
# ---------------------------------------------------------------------------


def derive_seed(seed: int, prompt: str, sample_tag: str = "") -> int:
    """Per-prompt mock seed, independent of call order."""
    digest = hashlib.sha256(f"{seed}|{sample_tag}|{prompt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _candidate_names(prompt: str) -> list[str]:
    lines = prompt.splitlines()
    for i, line in enumerate(lines):
        # The overall title is a prefix of the novel one.
        if line.startswith(CANDIDATES_TITLE_OVERALL):
            for body in lines[i + 1:]:
                if body.strip():
                    return re.findall(r'"([^"]+)"', body)
                break
            break
    raise LlmProtocolError("prompt has no candidate section")


def _supported_names(prompt: str) -> set[str]:
    if "⇒" not in prompt:  # no relational line, so nothing to scan for
        return set()
    pairs = re.findall(r'"([^"]*)"\s*⇒\s*"([^"]*)"', prompt)
    return {rhs for _, rhs in pairs}


def mock_echo(prompt: str) -> str:
    """Return the candidate names unchanged in prompt order."""
    return "Answer: " + ", ".join(_candidate_names(prompt))


def mock_evidence_aware(prompt: str, seed: int, swap_prob: float = 0.1) -> str:
    """Deterministic stand-in for the re-ranker.

    Candidates named on the right side of a relational line are promoted
    ahead of the rest, keeping their prompt order. The remaining candidates
    keep prompt order perturbed by seeded noise: one adjacent-swap pass at
    swap_prob normally, or a full shuffle when the history section is not
    prioritized (an unorganized history gives the mock much less to anchor
    on, mirroring the re-ranking quality drop the flags exist to measure).
    The noise is `numpy.random.default_rng(seed)`'s stream, drawn by
    `dxrank.rng`.
    """
    names = _candidate_names(prompt)
    supported_set = _supported_names(prompt)
    prioritized = any(
        line.startswith(HISTORY_TITLE_PRIORITIZED) for line in prompt.splitlines()
    )
    supported = [n for n in names if n in supported_set]
    rest = [n for n in names if n not in supported_set]

    rng = Pcg64(seed)
    if not prioritized:
        rest = [rest[i] for i in rng.permutation(len(rest))]
    else:
        for i in range(len(rest) - 1):
            if rng.random() < swap_prob:
                rest[i], rest[i + 1] = rest[i + 1], rest[i]
    return "Answer: " + ", ".join(supported + rest)
