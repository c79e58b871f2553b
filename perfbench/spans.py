"""Pass-through timing wrappers around dxrank's layers, and their summary.

    python3 perfbench/spans.py SPANS_OUT <dxrank cli arguments>

installs a wrapper under each name in WRAPS, which is the name its caller
looks up at call time, runs `dxrank.cli.main` with the remaining arguments,
and writes every span as one JSON line to SPANS_OUT when the command ends.
Training reaches `box_forward` through `dxrank.backends`, while inference
reaches it through `boxlm_logits` inside `dxrank.backends.boxes`, so the two
are counted apart. The wrappers return what the wrapped call returns and
re-raise what it raises, so a traced run writes the same artifacts.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _prompt_attrs(args, kwargs, prompt) -> dict:
    return {"chars": len(prompt)}


def _parse_attrs(args, kwargs, parsed) -> dict:
    return {"matched": parsed.matched_count, "candidates": len(args[1].codes)}


def _completion_attrs(args, kwargs, result) -> dict:
    return {"attempts": result.attempt_count}


# (module or "module:Class", attribute, span name, attributes of the result)
WRAPS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("dxrank.cli", "generate_synthetic", "synth.generate_synthetic", None),
    ("dxrank.cli", "save_dataset", "ehr.save_dataset", None),
    ("dxrank.cli", "load_dataset", "ehr.load_dataset", None),
    ("dxrank.cli", "split_patients", "ehr.split_patients", None),
    ("dxrank.cli", "build_instances", "ehr.build_instances", None),
    ("dxrank.backends", "build_instances", "ehr.build_instances", None),
    ("dxrank.cli", "train", "backends.train", None),
    ("dxrank.cli", "load_model", "backends.load_model", None),
    ("dxrank.backends", "adam_step", "numerics.adam_step", None),
    ("dxrank.backends", "box_forward", "boxes.box_forward", None),
    ("dxrank.backends", "box_backward", "boxes.box_backward", None),
    ("dxrank.backends", "boxlm_logits", "boxes.boxlm_logits", None),
    ("dxrank.backends", "retain_forward", "retain.retain_forward", None),
    ("dxrank.backends", "retain_backward", "retain.retain_backward", None),
    ("dxrank.backends", "retain_logits", "retain.retain_logits", None),
    ("dxrank.cli", "build_cooccurrence", "evidence.build_cooccurrence", None),
    ("dxrank.cli", "load_cooccurrence", "evidence.load_cooccurrence", None),
    ("dxrank.cli", "select_candidates", "evidence.select_candidates", None),
    ("dxrank.cli", "prioritize_history", "evidence.prioritize_history", None),
    ("dxrank.cli", "propagate_to_icd", "evidence.propagate_to_icd", None),
    ("dxrank.cli", "extract_relations", "evidence.extract_relations", None),
    ("dxrank.cli", "compose_prompt", "prompting.compose_prompt", _prompt_attrs),
    ("dxrank.cli", "parse_answer", "prompting.parse_answer", _parse_attrs),
    ("dxrank.llm:LlmClient", "complete", "llm.complete", _completion_attrs),
    ("dxrank.cli", "run_predictions", "cli.run_predictions", None),
    ("dxrank.cli", "predict_record", "cli.predict_record", None),
    ("dxrank.cli", "evaluate_run", "metrics.evaluate_run", None),
    ("dxrank.cli", "save_run", "metrics.save_run", None),
    ("dxrank.cli", "load_run", "metrics.load_run", None),
)

# Error classes the LLM layer raises; each gets a failure count, 0 included.
LLM_ERRORS = ("LlmTransportError", "LlmProtocolError")


class Tracer:
    """In-memory span store, safe to use from the predict worker pool.

    A span's parent is the innermost open span of its thread. A pool
    thread with no open span is parented to the innermost open span of the
    thread that created the tracer, which is blocked in `run_predictions`
    while the pool runs. `predict_record` starts a new instance id, which
    its child spans inherit.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _outer(self, stack) -> tuple[int, str | None] | None:
        for candidate in (stack, self._main_stack):
            try:
                return candidate[-1]
            except IndexError:
                continue
        return None

    def wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = self._outer(stack)
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            if name == "cli.predict_record":
                instance = args[0].patient_id
            else:
                instance = outer[1] if outer else None
            span = {"name": name, "id": span_id,
                    "parent": outer[0] if outer else None, "instance": instance}
            stack.append((span_id, instance))
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            else:
                if attrs is not None:
                    span.update(attrs(args, kwargs, result))
                return result
            finally:
                span["end_ns"] = time.perf_counter_ns()
                stack.pop()
                with self._lock:
                    self.spans.append(span)

        return traced

    def install(self) -> None:
        for target, attr, name, attrs in WRAPS:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def write(self, path: str | Path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(paths: Iterable[Path]) -> list[dict]:
    """Spans of several processes, with ids made unique across them."""
    spans = []
    for n, path in enumerate(paths):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                span["id"] = f"{n}/{span['id']}"
                if span["parent"] is not None:
                    span["parent"] = f"{n}/{span['parent']}"
                spans.append(span)
    return spans


def _rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def _self_ms(spans: list[dict], children: dict[str, list[dict]]) -> float:
    """Summed span time minus the part of each span its children cover."""
    total = 0
    for span in spans:
        covered, reach = 0, span["start_ns"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start_ns"]):
            lo, hi = max(child["start_ns"], reach), child["end_ns"]
            if hi > lo:
                covered += hi - lo
                reach = hi
        total += span["end_ns"] - span["start_ns"] - covered
    return total / 1e6


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one chain's spans. Every metric is present;
    a layer the chain did not use reports 0 calls."""
    by_name: dict[str, list[dict]] = {name: [] for _, _, name, _ in WRAPS}
    children: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def durations(name: str) -> list[float]:
        return sorted((s["end_ns"] - s["start_ns"]) / 1e6 for s in by_name[name])

    out: dict[str, float] = {}

    def calls_ms(name: str, *stats: str) -> None:
        ms = durations(name)
        if "calls" in stats:
            out[f"{name}.calls"] = len(ms)
        out[f"{name}.ms"] = sum(ms)
        for stat, q, scale in (("p50_us", 0.5, 1e3), ("p95_us", 0.95, 1e3),
                               ("p50_ms", 0.5, 1.0), ("p95_ms", 0.95, 1.0)):
            if stat in stats:
                out[f"{name}.{stat}"] = _rank(ms, q) * scale

    calls_ms("backends.train")
    calls_ms("numerics.adam_step", "calls")
    calls_ms("backends.load_model", "calls")
    for layer in ("boxes.box", "retain.retain"):
        calls_ms(f"{layer}_forward", "calls", "p50_us")
        calls_ms(f"{layer}_backward", "calls", "p50_us")
    calls_ms("boxes.boxlm_logits", "calls")
    calls_ms("retain.retain_logits", "calls")
    forward = len(by_name["boxes.box_forward"]) + len(by_name["retain.retain_forward"])
    backward = len(by_name["boxes.box_backward"]) + len(by_name["retain.retain_backward"])
    out["backends.loss_pass_share"] = (forward - backward) / forward if forward else 0.0

    for name in ("evidence.select_candidates", "evidence.extract_relations"):
        calls_ms(name, "calls", "p50_us", "p95_us")
    for name in ("evidence.prioritize_history", "evidence.propagate_to_icd",
                 "evidence.build_cooccurrence"):
        calls_ms(name)
    calls_ms("evidence.load_cooccurrence", "calls")

    calls_ms("prompting.compose_prompt", "calls", "p50_us", "p95_us")
    chars = sorted(s["chars"] for s in by_name["prompting.compose_prompt"] if "chars" in s)
    out["prompting.prompt_chars.p50"] = _rank(chars, 0.5)
    out["prompting.prompt_chars.max"] = chars[-1] if chars else 0
    calls_ms("prompting.parse_answer", "calls", "p50_us", "p95_us")
    parsed = [s for s in by_name["prompting.parse_answer"] if "matched" in s]
    offered = sum(s["candidates"] for s in parsed)
    out["prompting.parse_coverage"] = (
        sum(s["matched"] for s in parsed) / offered if offered else 0.0)

    calls_ms("llm.complete", "calls", "p50_ms", "p95_ms")
    completions = by_name["llm.complete"]
    answered = [s["attempts"] for s in completions if "attempts" in s]
    # A failed call raises, so only answered calls know their attempt count.
    out["llm.attempts_per_call"] = sum(answered) / len(answered) if answered else 0.0
    for error in LLM_ERRORS:
        out[f"llm.failures.{error}"] = sum(s.get("error") == error for s in completions)

    calls_ms("ehr.load_dataset", "calls")
    for name in ("ehr.split_patients", "ehr.build_instances",
                 "synth.generate_synthetic", "ehr.save_dataset",
                 "metrics.evaluate_run", "metrics.save_run", "metrics.load_run"):
        calls_ms(name)

    calls_ms("cli.run_predictions", "calls")
    records = durations("cli.predict_record")
    out["cli.predict_record.p50_ms"] = _rank(records, 0.5)
    out["cli.predict_record.p95_ms"] = _rank(records, 0.95)
    out["cli.predict_record.self_ms"] = _self_ms(by_name["cli.predict_record"], children)
    return out


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from dxrank import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
