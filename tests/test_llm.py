from __future__ import annotations

import hashlib
import http.client
import json
import os
import ssl
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dxrank
from dxrank import InputError
from dxrank.llm import (
    BACKOFF_BASE_S,
    LLM_BACKENDS,
    MOCKS,
    CompletionResult,
    LlmClient,
    LlmConfig,
    LlmProtocolError,
    LlmTransportError,
    derive_seed,
    mock_echo,
    mock_evidence_aware,
    request_body,
)

from .loopback import LoopbackLlm
from .reference import numpy_mock_evidence_aware

REMOTE = dict(backend="remote", endpoint_url="http://h/v1", model_name="m")


def ok_body(text: str) -> bytes:
    return json.dumps(
        {"choices": [{"message": {"role": "assistant", "content": text}}]}
    ).encode("utf-8")


class FakeTransport:
    """Scripted transport: each step is (status, body) or an exception."""

    def __init__(self, steps):
        self.steps = list(steps)
        self.calls = []

    def __call__(self, url, body, headers):
        self.calls.append((url, body, dict(headers)))
        step = self.steps.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def make_client(steps, **cfg_kw):
    cfg = LlmConfig(**{**REMOTE, **cfg_kw})
    transport = FakeTransport(steps)
    sleeps: list[float] = []
    client = LlmClient(cfg, transport=transport, sleeper=sleeps.append)
    return client, transport, sleeps


def prompt_text(names, title="Candidate CCS Codes", prioritized=True,
                supported=()):
    lines = []
    if prioritized:
        lines += [
            "Patient Historical Diagnoses (Prioritized):",
            '[{"Essential Hypertension"} BELONG TO "Hypertension"]',
            "",
        ]
    else:
        lines += ["Patient Historical Diagnoses:", '"Hypertension"', ""]
    if supported:
        lines.append("Relational Evidence Support:")
        lines += [f'"Hypertension" ⇒ "{s}"' for s in supported]
        lines.append("")
    lines += [
        f"{title}:",
        ", ".join(f'"{n}"' for n in names),
        "",
        "Instruction:",
        "- Re-rank the candidate CCS categories from most to least likely.",
    ]
    return "\n".join(lines)


class TestConfig:
    def test_defaults_valid(self):
        assert LlmConfig().backend == "mock_echo"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            LlmConfig(backend="gpt")

    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError, match="endpoint_url"):
            LlmConfig(backend="remote")

    @pytest.mark.parametrize("url", ["htp://127.0.0.1:9", "127.0.0.1:9", "http://",
                                     "http:///v1", "http://127.0.0.1:x",
                                     "http://h/v1?api-version=1", "http://h/v1#x",
                                     "http://h/v1?"])
    def test_malformed_endpoint_rejected(self, url):
        with pytest.raises(InputError, match="endpoint_url"):
            LlmConfig(backend="remote", endpoint_url=url)

    def test_bad_numbers_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            LlmConfig(temperature=-0.1)
        with pytest.raises(ValueError, match="max_in_flight"):
            LlmConfig(max_in_flight=0)
        with pytest.raises(ValueError, match="max_retries must be non-negative, got -1"):
            LlmConfig(max_retries=-1)
        with pytest.raises(ValueError, match="max_tokens must be at least 1, got 0"):
            LlmConfig(max_tokens=0)
        with pytest.raises(ValueError, match="timeout_ms must be positive, got 0"):
            LlmConfig(timeout_ms=0)


class TestRequestBody:
    def test_golden_bytes(self):
        cfg = LlmConfig(**REMOTE, max_tokens=512)
        assert request_body("Hi", cfg) == (
            b'{"max_tokens":512,"messages":[{"content":"Hi","role":"user"}],'
            b'"model":"m","temperature":0.0}'
        )

    def test_temperature_override(self):
        cfg = LlmConfig(**REMOTE, max_tokens=512)
        assert request_body("Hi", cfg, 0.7) == (
            b'{"max_tokens":512,"messages":[{"content":"Hi","role":"user"}],'
            b'"model":"m","temperature":0.7}'
        )

    def test_byte_stable(self):
        cfg = LlmConfig(**REMOTE)
        assert request_body("p", cfg) == request_body("p", cfg)


class TestRemote:
    def test_success_first_attempt(self):
        client, transport, sleeps = make_client([(200, ok_body("Answer: X"))])
        got = client.complete("p")
        assert got.text == "Answer: X"
        assert got.attempt_count == 1
        assert got.backend_tag == "remote"
        assert sleeps == []
        assert transport.calls[0][0] == "http://h/v1/chat/completions"

    def test_retries_with_doubling_backoff(self):
        client, transport, sleeps = make_client(
            [TimeoutError("t"), ConnectionError("c"), (200, ok_body("ok"))],
            max_retries=2,
        )
        got = client.complete("p")
        assert got.attempt_count == 3
        assert sleeps == [BACKOFF_BASE_S, 2 * BACKOFF_BASE_S]
        assert len(transport.calls) == 3

    def test_gives_up_after_retries(self):
        client, transport, sleeps = make_client(
            [TimeoutError("t")] * 3, max_retries=2
        )
        with pytest.raises(LlmTransportError, match="after 3 attempts"):
            client.complete("p")
        assert sleeps == [0.25, 0.5]
        assert len(transport.calls) == 3

    def test_5xx_is_retried(self):
        client, transport, sleeps = make_client(
            [(503, b"busy"), (200, ok_body("ok"))], max_retries=1
        )
        got = client.complete("p")
        assert got.attempt_count == 2
        assert sleeps == [0.25]

    def test_429_is_retried(self):
        client, transport, sleeps = make_client(
            [(429, b"slow down"), (200, ok_body("ok"))], max_retries=2
        )
        got = client.complete("p")
        assert got.attempt_count == 2
        assert sleeps == [0.25]

    def test_4xx_fails_immediately(self):
        client, transport, sleeps = make_client(
            [(404, b"nope")], max_retries=5
        )
        with pytest.raises(LlmTransportError, match="404"):
            client.complete("p")
        assert len(transport.calls) == 1
        assert sleeps == []

    def test_non_json_response(self):
        client, _, _ = make_client([(200, b"<html>")])
        with pytest.raises(LlmProtocolError, match="non-JSON"):
            client.complete("p")

    def test_missing_choice(self):
        client, _, _ = make_client([(200, b'{"choices": []}')])
        with pytest.raises(LlmProtocolError, match="choice"):
            client.complete("p")

    @pytest.mark.parametrize("content", [None, 3, ["Answer: X"]])
    def test_choice_that_is_not_text(self, content):
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        client, _, _ = make_client([(200, body)])
        with pytest.raises(LlmProtocolError, match="choice"):
            client.complete("p")

    def test_missing_api_key_env(self, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY_VAR", raising=False)
        transport = FakeTransport([(200, ok_body("ok"))])
        with pytest.raises(InputError, match="NO_SUCH_KEY_VAR"):
            LlmClient(LlmConfig(**REMOTE, api_key_env="NO_SUCH_KEY_VAR"),
                      transport=transport)
        assert transport.calls == []

    def test_bearer_header_sent(self, monkeypatch):
        monkeypatch.setenv("DXRANK_TEST_KEY", "sek")
        client, transport, _ = make_client(
            [(200, ok_body("ok"))], api_key_env="DXRANK_TEST_KEY"
        )
        client.complete("p")
        assert transport.calls[0][2]["Authorization"] == "Bearer sek"

    def test_request_body_passed_through(self):
        client, transport, _ = make_client([(200, ok_body("ok"))])
        client.complete("hello", temperature=0.7)
        assert transport.calls[0][1] == request_body(
            "hello", client.cfg, 0.7
        )

    def test_max_in_flight_bound(self):
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        def transport(url, body, headers):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.01)
            with lock:
                state["now"] -= 1
            return 200, ok_body("ok")

        cfg = LlmConfig(**REMOTE, max_in_flight=2)
        client = LlmClient(cfg, transport=transport)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda i: client.complete(f"p{i}"), range(16)))
        assert state["peak"] <= 2


def cached_client(tmp_path, steps, **cfg_kw):
    client, transport, sleeps = make_client(steps, **cfg_kw)
    client.cache_in(tmp_path / "llm_cache")
    return client, transport, sleeps


def cache_entries(tmp_path) -> list[Path]:
    return sorted((tmp_path / "llm_cache").glob("*"))


class TestCompletionCache:
    """The completion cache, through a scripted transport."""

    def test_repeat_is_answered_from_the_cache(self, tmp_path):
        client, transport, _ = cached_client(
            tmp_path, [(200, ok_body("Answer: X")), (200, ok_body("Answer: X"))])
        first = client.ask("p")
        again = client.ask("p")
        assert len(transport.calls) == 1
        assert (first.text, again.text) == ("Answer: X", "Answer: X")
        assert (again.attempt_count, again.backend_tag) == (0, "cache")
        assert (client.fetched, client.from_cache) == (1, 1)
        # `complete` asks the endpoint whatever the cache holds.
        assert client.complete("p").backend_tag == "remote"
        assert len(transport.calls) == 2 and client.fetched == 2
        (entry,) = cache_entries(tmp_path)
        url, body, _ = transport.calls[0]
        assert entry.name == hashlib.sha256(url.encode() + b"\n" + body).hexdigest() + ".json"
        assert json.loads(entry.read_text()) == {"text": "Answer: X"}

    @pytest.mark.parametrize("cfg_kw, override", [({}, 0.7), ({"temperature": 0.5}, None)])
    def test_sampled_requests_always_go_out(self, tmp_path, cfg_kw, override):
        client, transport, _ = cached_client(
            tmp_path, [(200, ok_body("a")), (200, ok_body("b"))], **cfg_kw)
        texts = [client.ask("p", temperature=override).text for _ in range(2)]
        assert texts == ["a", "b"] and len(transport.calls) == 2
        assert (client.fetched, client.from_cache) == (2, 0)
        assert not (tmp_path / "llm_cache").exists()

    def test_override_to_zero_is_cached(self, tmp_path):
        client, transport, _ = cached_client(tmp_path, [(200, ok_body("a"))],
                                             temperature=0.5)
        assert client.ask("p", temperature=0.0).text == "a"
        assert client.ask("p", temperature=0.0).text == "a"
        assert len(transport.calls) == 1

    @pytest.mark.parametrize("failure", [
        [(503, b"busy")], [TimeoutError("t")], [(404, b"nope")], [(200, b"<html>")],
        [(200, b'{"choices": []}')]])
    def test_failures_are_not_stored(self, tmp_path, failure):
        client, transport, _ = cached_client(
            tmp_path, failure + [(200, ok_body("ok"))], max_retries=0)
        with pytest.raises((LlmTransportError, LlmProtocolError)):
            client.ask("p")
        assert cache_entries(tmp_path) == []
        assert client.ask("p").text == "ok"
        assert len(transport.calls) == 2
        assert (client.fetched, client.from_cache) == (1, 0)

    @pytest.mark.parametrize("content", [
        b'{"text": "Answ', b"not json", b"\xff\xfe", b'["Answer: X"]', b'{"text": 3}',
        b'{"txt": "Answer: X"}', b"[" * 100_000, b""])
    def test_bad_entry_is_a_miss_and_is_rewritten(self, tmp_path, content):
        client, transport, _ = cached_client(
            tmp_path, [(200, ok_body("Answer: X")), (200, ok_body("Answer: X"))])
        client.ask("p")
        (entry,) = cache_entries(tmp_path)
        entry.write_bytes(content)
        assert client.ask("p").text == "Answer: X"
        assert len(transport.calls) == 2
        assert (client.fetched, client.from_cache) == (2, 0)
        assert cache_entries(tmp_path) == [entry]
        assert json.loads(entry.read_text()) == {"text": "Answer: X"}

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        client, transport, _ = cached_client(
            tmp_path, [(200, ok_body("a")), (200, ok_body("a"))])
        client.ask("p")
        (entry,) = cache_entries(tmp_path)
        entry.unlink()
        entry.mkdir()  # neither readable as a file nor replaceable
        assert client.ask("p").text == "a"
        assert len(transport.calls) == 2 and entry.is_dir()
        assert [p.name for p in cache_entries(tmp_path)] == [entry.name]

    def test_failed_write_does_not_fail_the_request(self, tmp_path):
        (tmp_path / "llm_cache").write_text("a file, not a directory")
        client, transport, _ = cached_client(
            tmp_path, [(200, ok_body("a")), (200, ok_body("a"))])
        assert [client.ask("p").text for _ in range(2)] == ["a", "a"]
        assert len(transport.calls) == 2
        assert (client.fetched, client.from_cache) == (2, 0)

    def test_interrupted_write_leaves_no_entry(self, tmp_path, monkeypatch):
        # A write cut off before its rename leaves neither an entry nor a
        # temporary file, and the request still succeeds.
        def cut(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", cut)
        client, transport, _ = cached_client(
            tmp_path, [(200, ok_body("a")), (200, ok_body("a"))])
        assert client.ask("p").text == "a"
        assert cache_entries(tmp_path) == []
        monkeypatch.undo()
        assert client.ask("p").text == "a" and len(transport.calls) == 2
        assert [p.suffix for p in cache_entries(tmp_path)] == [".json"]

    def test_endpoint_and_body_are_in_the_key(self, tmp_path):
        client, _, _ = cached_client(tmp_path, [(200, ok_body("a"))])
        client.ask("p")
        for cfg_kw in ({"endpoint_url": "http://other/v1"}, {"model_name": "m2"},
                       {"max_tokens": 7}):
            other, transport, _ = cached_client(tmp_path, [(200, ok_body("b"))], **cfg_kw)
            assert other.ask("p").text == "b" and len(transport.calls) == 1
        assert len(cache_entries(tmp_path)) == 4

    def test_token_is_in_no_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DXRANK_TEST_KEY", "sek-7f3a9")
        client, transport, _ = cached_client(
            tmp_path, [(200, ok_body("ok"))], api_key_env="DXRANK_TEST_KEY")
        client.ask("p")
        assert transport.calls[0][2]["Authorization"] == "Bearer sek-7f3a9"
        (entry,) = cache_entries(tmp_path)
        assert b"sek-7f3a9" not in entry.read_bytes() and "sek" not in entry.name
        # A different token reads the same entry.
        monkeypatch.setenv("DXRANK_TEST_KEY", "other")
        again, transport, _ = cached_client(tmp_path, [], api_key_env="DXRANK_TEST_KEY")
        assert again.ask("p").text == "ok" and transport.calls == []

    @pytest.mark.parametrize("backend", ["mock_echo", "mock_evidence"])
    def test_mocks_never_touch_the_cache(self, tmp_path, backend):
        client = LlmClient(LlmConfig(backend=backend))
        client.cache_in(tmp_path / "llm_cache")
        for _ in range(2):
            client.ask(prompt_text(NAMES))
        assert not (tmp_path / "llm_cache").exists()
        assert (client.fetched, client.from_cache) == (0, 0)

    def test_concurrent_misses_leave_one_entry(self, tmp_path):
        # Every worker misses the same key before any answer arrives, so
        # each one writes the entry through its own temporary file.
        workers = 4
        barrier = threading.Barrier(workers, timeout=10)

        def transport(url, body, headers):
            barrier.wait()
            return 200, ok_body("Answer: X")

        client = LlmClient(LlmConfig(**REMOTE, max_in_flight=workers), transport=transport)
        client.cache_in(tmp_path / "llm_cache")
        with ThreadPoolExecutor(max_workers=workers) as pool:
            got = list(pool.map(client.ask, ["p"] * workers))
        assert [r.text for r in got] == ["Answer: X"] * workers
        assert (client.fetched, client.from_cache) == (workers, 0)
        (entry,) = cache_entries(tmp_path)
        assert entry.suffix == ".json"
        assert json.loads(entry.read_text()) == {"text": "Answer: X"}


class TestBackendRegistry:
    def test_backends_are_remote_and_the_mocks(self):
        assert LLM_BACKENDS == ("remote", *MOCKS)

    @pytest.mark.parametrize("backend", list(MOCKS))
    def test_mock_answers_in_process(self, backend):
        client = LlmClient(LlmConfig(backend=backend, seed=3))
        assert client.remote is False
        prompt = prompt_text(NAMES)
        got = client.complete(prompt, sample_tag="sc1")
        assert got.backend_tag == backend and got.attempt_count == 1
        assert got.text == MOCKS[backend](prompt, derive_seed(3, prompt, "sc1"))

    def test_remote_client_is_remote(self):
        assert LlmClient(LlmConfig(**REMOTE), transport=FakeTransport([])).remote is True


class TestDeriveSeed:
    def test_frozen_values(self):
        assert derive_seed(0, "p", "") == 2642205351796282914
        assert derive_seed(3, "p", "sc1") == 16702696007469862941

    def test_sensitivity(self):
        base = derive_seed(0, "p", "")
        assert derive_seed(1, "p", "") != base
        assert derive_seed(0, "q", "") != base
        assert derive_seed(0, "p", "sc1") != base

    def test_call_order_irrelevant(self):
        a1 = derive_seed(0, "alpha", "")
        _ = derive_seed(0, "beta", "")
        assert derive_seed(0, "alpha", "") == a1


NAMES = ["A", "B", "C", "D", "E", "F"]


class TestMockEcho:
    def test_preserves_prompt_order(self):
        assert mock_echo(prompt_text(NAMES)) == "Answer: A, B, C, D, E, F"

    def test_novel_title_accepted(self):
        text = prompt_text(NAMES, title="Candidate CCS Codes (Novel Only)")
        assert mock_echo(text) == "Answer: A, B, C, D, E, F"

    def test_missing_candidates_raise(self):
        with pytest.raises(LlmProtocolError, match="candidate section"):
            mock_echo("Instruction:\n- guess")

    def test_via_client(self):
        got = LlmClient(LlmConfig(backend="mock_echo")).complete(prompt_text(NAMES))
        assert got.text == "Answer: A, B, C, D, E, F"
        assert got.backend_tag == "mock_echo"
        assert got.attempt_count == 1


class TestMockEvidence:
    def test_supported_promoted_in_prompt_order(self):
        text = prompt_text(NAMES, supported=("F", "C"))
        got = mock_evidence_aware(text, 5, swap_prob=0.0)
        assert got == "Answer: C, F, A, B, D, E"

    def test_last_candidate_moves_first(self):
        text = prompt_text(NAMES, supported=("F",))
        got = mock_evidence_aware(text, 9, swap_prob=0.0)
        assert got.startswith("Answer: F, ")

    def test_prioritized_no_noise_is_identity(self):
        got = mock_evidence_aware(prompt_text(NAMES), 7, swap_prob=0.0)
        assert got == "Answer: A, B, C, D, E, F"

    def test_unprioritized_shuffles(self):
        text = prompt_text(NAMES, prioritized=False)
        got = mock_evidence_aware(text, 1)
        assert got == "Answer: E, A, C, B, F, D"

    def test_deterministic_per_seed(self):
        text = prompt_text(NAMES, prioritized=False)
        assert mock_evidence_aware(text, 4) == mock_evidence_aware(text, 4)

    def test_seed_changes_output(self):
        text = prompt_text(NAMES, prioritized=False)
        outs = {mock_evidence_aware(text, s) for s in range(10)}
        assert len(outs) > 1

    def test_output_is_permutation(self):
        for seed in range(20):
            got = mock_evidence_aware(
                prompt_text(NAMES, prioritized=False, supported=("D",)), seed
            )
            names = got[len("Answer: "):].split(", ")
            assert sorted(names) == sorted(NAMES)
            assert names[0] == "D"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(names=st.lists(st.text("abcdefgh", min_size=1, max_size=4), unique=True,
                          min_size=1, max_size=300),
           prioritized=st.booleans(), data=st.data(),
           seed=st.integers(0, 2**64 - 1) | st.integers(0, 100),
           swap_prob=st.sampled_from([0.1, 0.5, 1.0]))
    def test_answers_equal_the_numpy_drawn_mock(self, names, prioritized, data, seed,
                                                swap_prob):
        """`dxrank.rng` draws the noise numpy's `default_rng` drew, for
        prompts with and without prioritized history and `⇒` lines."""
        supported = data.draw(st.lists(st.sampled_from(names), unique=True))
        text = prompt_text(names, prioritized=prioritized, supported=supported)
        assert mock_evidence_aware(text, seed, swap_prob) == numpy_mock_evidence_aware(
            text, seed, swap_prob)

    def test_via_client_uses_sample_tag(self):
        cfg = LlmConfig(backend="mock_evidence", seed=0)
        client = LlmClient(cfg)
        text = prompt_text(NAMES, prioritized=False)
        a = client.complete(text, sample_tag="sc0")
        b = client.complete(text, sample_tag="sc0")
        assert a.text == b.text
        assert a.backend_tag == "mock_evidence"
        tags = {client.complete(text, sample_tag=f"sc{i}").text
                for i in range(8)}
        assert len(tags) > 1


class TestCompletionResult:
    def test_fields(self):
        got = CompletionResult(
            text="x", latency_ms=1, attempt_count=2, backend_tag="remote"
        )
        assert (got.text, got.latency_ms, got.attempt_count) == ("x", 1, 2)


class TestConnections:
    """The default transport against an HTTP/1.1 server on 127.0.0.1."""

    def _client(self, endpoint, max_in_flight):
        cfg = LlmConfig(backend="remote", endpoint_url=endpoint.url, seed=endpoint.seed,
                        timeout_ms=5000, max_in_flight=max_in_flight)
        sleeps: list[float] = []
        return LlmClient(cfg, sleeper=sleeps.append), sleeps

    def _run(self, client, n, workers):
        prompts = [prompt_text(NAMES, prioritized=False) + f"\n{i}" for i in range(n)]
        with client, ThreadPoolExecutor(max_workers=workers) as pool:
            return prompts, list(pool.map(client.complete, prompts))

    def test_slots_keep_their_connections(self):
        # More workers than slots and cores, switching threads often: two
        # requests sharing one connection would fail and show as a retry.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with LoopbackLlm(seed=3) as endpoint:
                client, sleeps = self._client(endpoint, 2)
                prompts, got = self._run(client, 24, 6)
        finally:
            sys.setswitchinterval(interval)
        assert endpoint.requests == 24 and endpoint.connections <= 2
        assert sleeps == [] and {r.attempt_count for r in got} == {1}
        assert [r.text for r in got] == [
            mock_evidence_aware(p, derive_seed(3, p)) for p in prompts]

    def test_server_that_hangs_up_costs_no_attempt(self):
        # The server closes after every response without `Connection:
        # close`, so every request after a slot's first finds its connection
        # closed, at the probe or on sending.
        with LoopbackLlm(close_each=True) as endpoint:
            client, sleeps = self._client(endpoint, 2)
            _, got = self._run(client, 16, 4)
        assert endpoint.requests == endpoint.connections == 16
        assert sleeps == [] and {r.attempt_count for r in got} == {1}

    def test_probe_replaces_a_connection_the_server_closed(self, monkeypatch):
        sent = []
        real = http.client.HTTPConnection.request

        def request(conn, *args, **kwargs):
            sent.append(conn)
            return real(conn, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request", request)
        with LoopbackLlm(close_each=True) as endpoint:
            client, sleeps = self._client(endpoint, 1)
            with client:
                for i in range(4):
                    time.sleep(0.02)  # long enough for the server's FIN to arrive
                    client.complete(prompt_text(NAMES) + f"\n{i}")
        # No request went out on a closed connection.
        assert len(sent) == endpoint.requests == endpoint.connections == 4
        assert sleeps == []

    def test_https_endpoint_checks_the_host_name(self, monkeypatch):
        # No TLS handshake runs offline; this checks what the connection is
        # opened with.
        opened = []

        def refused(conn):
            opened.append(conn)
            raise ConnectionRefusedError("offline")

        monkeypatch.setattr(http.client.HTTPSConnection, "connect", refused)
        cfg = LlmConfig(backend="remote", endpoint_url="https://llm.example/v1",
                        max_retries=0)
        with LlmClient(cfg) as client, pytest.raises(LlmTransportError):
            client.complete("p")
        (conn,) = opened
        assert (conn.host, conn.port) == ("llm.example", 443)
        assert conn._context.check_hostname
        assert conn._context.verify_mode == ssl.CERT_REQUIRED


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's dxrank."""
    src = str(Path(dxrank.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_only_remote_client_imports_http_client():
    """Mock runs never load an HTTP module; the remote client loads only
    the standard library's."""
    out = _python("""
        import sys
        import dxrank.cli
        from dxrank.llm import LlmClient, LlmConfig
        prompt = 'Candidate CCS Codes\\n"Anemia"\\n'
        LlmClient(LlmConfig(backend="mock_evidence")).complete(prompt)
        print("http.client" in sys.modules)
        LlmClient(LlmConfig(backend="remote", endpoint_url="http://unused"))
        print("http.client" in sys.modules, "requests" in sys.modules)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True", "False"]


def test_remote_path_runs_without_requests():
    with LoopbackLlm(seed=4) as endpoint:
        out = _python(f"""
            import sys
            sys.modules["requests"] = None  # any import of it now fails
            from dxrank.llm import LlmClient, LlmConfig
            cfg = LlmConfig(backend="remote", endpoint_url={endpoint.url!r}, seed=4,
                            timeout_ms=5000)
            with LlmClient(cfg) as client:
                print(client.complete({prompt_text(NAMES)!r}).text)
        """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == mock_evidence_aware(
        prompt_text(NAMES), derive_seed(4, prompt_text(NAMES)))
