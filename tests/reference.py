"""Reference implementations the tests compare the shipped code against:
per-box volume math and pooling, log-softplus and its derivative, per-vector
BCE, run scoring one loop per metric, a metrics.json reader, and the patient
split and evidence-aware mock drawn from numpy's own generator. The
pipeline itself scores packed batches, computes log-softplus in place, scores
each task from one set of eligible records, never reads metrics back and
draws its streams from `dxrank.rng`, so none of this ships in `src/`.
`code_accuracy_at_k` scores one metric of a bare record list through the
shipped formula, and `score` reads one code's logit, which only tests need."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from dxrank.backends.base import BackendError, LogitVector, code_index
from dxrank.backends.boxes import VolumeConfig
from dxrank.backends.numerics import ParamTree, bce_with_logits, sigmoid, softplus, \
    softplus_inv
from dxrank.ehr import Dataset
from dxrank.llm import _candidate_names, _supported_names
from dxrank.prompting import HISTORY_TITLE_PRIORITIZED
from dxrank.metrics import EvalError, MetricsReport, RunArtifact, RunRecord, _pooled_accuracy, \
    _views


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softplus(x: np.ndarray) -> np.ndarray:
    """log(softplus(x)) with a linear tail where softplus would underflow.
    The box volume kernels compute this and dlog_softplus in place, from
    one softplus shared by forward and backward."""
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, -33.0)
    return np.where(x < -33.0, x, np.log(softplus(safe)))


def dlog_softplus(x: np.ndarray) -> np.ndarray:
    """Derivative of log_softplus: sigmoid(x)/softplus(x), which tends to 1
    as x -> -inf and to 1/x as x -> +inf."""
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, -30.0)
    return np.where(x < -30.0, 1.0, sigmoid(safe) / softplus(safe))


@dataclass(frozen=True)
class BoxEmbed:
    """One box: a center vector and a raw offset mapped through softplus."""

    center: np.ndarray
    offset_raw: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        offset_raw = np.asarray(self.offset_raw, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "offset_raw", offset_raw)
        if center.ndim != 1 or center.shape != offset_raw.shape:
            raise BackendError("box center and offset must be equal-length vectors")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(offset_raw))):
            raise BackendError("non-finite box parameters")

    @classmethod
    def with_width(cls, center: np.ndarray, offset: np.ndarray) -> BoxEmbed:
        """Build a box from an effective (positive) offset."""
        return cls(center=center, offset_raw=softplus_inv(offset))

    @property
    def offset(self) -> np.ndarray:
        return softplus(self.offset_raw)

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.offset

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.offset


def intersection_volume(
    a: BoxEmbed, b: BoxEmbed, cfg: VolumeConfig = VolumeConfig()
) -> float:
    """Soft intersection volume of two boxes; positive and monotone
    non-decreasing in per-dimension overlap."""
    if a.center.shape != b.center.shape:
        raise BackendError("box dimension mismatch")
    m_max = np.minimum(a.upper, b.upper)
    m_min = np.maximum(a.lower, b.lower)
    z = (m_max - m_min) / cfg.beta - 2.0 * cfg.gamma
    return float(np.prod(cfg.beta * softplus(z)))


def _aggregate(boxes: Sequence[BoxEmbed], query: np.ndarray, what: str) -> BoxEmbed:
    if len(boxes) == 0:
        raise BackendError(f"cannot aggregate an empty {what}")
    centers = np.stack([b.center for b in boxes])
    if centers.shape[1] != query.shape[0]:
        raise BackendError("box dimension does not match query vector")
    offsets = np.stack([b.offset for b in boxes])
    alpha = softmax(centers @ query)
    return BoxEmbed.with_width(center=alpha @ centers, offset=offsets.max(axis=0))


def code_boxes(vocab: Sequence[str], tensors: ParamTree) -> dict[str, BoxEmbed]:
    """Each vocabulary code's box, by code."""
    return {c: BoxEmbed(center=tensors["center"][i], offset_raw=tensors["offset_raw"][i])
            for i, c in enumerate(vocab)}


def visit_box(boxes: Sequence[BoxEmbed], tensors: ParamTree) -> BoxEmbed:
    """Attention-weighted center over the visit's code boxes; offset is the
    elementwise max of effective offsets."""
    return _aggregate(boxes, tensors["attn_query"], "visit")


def patient_box(visit_boxes: Sequence[BoxEmbed], tensors: ParamTree) -> BoxEmbed:
    """Temporal pooling of visit boxes with the visit weight vector."""
    return _aggregate(visit_boxes, tensors["visit_weight_vec"], "patient")


def score(logits: LogitVector, code: str) -> float:
    """The score `logits` gives `code`; the pipeline reads only the ranking."""
    try:
        return float(logits.scores[code_index(logits.vocab)[code]])
    except KeyError:
        raise BackendError(f"CCS code {code!r} not in logit vector") from None


def bce_loss(logits: LogitVector, target: Sequence[str]) -> float:
    """Mean over codes of binary cross-entropy between logits and the
    multi-hot encoding of the target CCS set."""
    index = code_index(logits.vocab)
    y = np.zeros(len(logits.vocab))
    try:
        y[[index[c] for c in sorted(set(target))]] = 1.0
    except KeyError as exc:
        raise BackendError(f"target CCS {exc.args[0]!r} not in vocabulary") from None
    return float(bce_with_logits(logits.scores, y))


def load_metrics(path: str | Path) -> MetricsReport:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    values = {
        task: {m: {int(k): v for k, v in per_k.items()}
               for m, per_k in metrics.items()}
        for task, metrics in doc["values"].items()
    }
    return MetricsReport(
        values=values,
        n_instances=int(doc["n_instances"]),
        n_failed=int(doc["n_failed"]),
        n_novel_excluded=int(doc["n_novel_excluded"]),
        ks={task: tuple(v) for task, v in doc["ks"].items()},
    )


def code_accuracy_at_k(records: Sequence[RunRecord], k: int, task: str) -> float:
    """Pooled hit ratio: Σ|top-k ∩ Y| / Σ|Y| over eligible records."""
    value = _pooled_accuracy(_views(records, task), k)
    if value is None:
        raise EvalError(f"no eligible records for task {task!r}")
    return value


def _task_view(rec: RunRecord, task: str) -> tuple[list[str], set[str]] | None:
    """Ranking and target for one record under a task; None if ineligible."""
    if rec.error:
        return None
    if task == "overall":
        return list(rec.ranked), set(rec.target_overall)
    if not rec.target_novel:
        return None
    history = set(rec.history_ccs)
    return [c for c in rec.ranked if c not in history], set(rec.target_novel)


def score_by_loops(artifact: RunArtifact, ks: Mapping[str, Sequence[int]]) -> MetricsReport:
    """evaluate_run as one loop over the records per task, metric and k, each
    deciding again which records count. A value is None when none does."""
    values: dict = {}
    for task, task_ks in ks.items():
        values[task] = {"visit_precision": {}, "code_accuracy": {}}
        for k in task_ks:
            precisions = []
            for rec in artifact.records:
                view = _task_view(rec, task)
                if view is not None:
                    ranked, target = view
                    hits = sum(1 for c in ranked[:k] if c in target)
                    precisions.append(hits / min(k, len(target)))
            values[task]["visit_precision"][k] = (
                sum(precisions) / len(precisions) if precisions else None)
            hit_total, target_total = 0, 0
            for rec in artifact.records:
                view = _task_view(rec, task)
                if view is not None:
                    ranked, target = view
                    hit_total += sum(1 for c in ranked[:k] if c in target)
                    target_total += len(target)
            values[task]["code_accuracy"][k] = (
                hit_total / target_total if target_total else None)
    return MetricsReport(
        values=values,
        n_instances=len(artifact.records),
        n_failed=sum(1 for r in artifact.records if r.error),
        n_novel_excluded=sum(1 for r in artifact.records if not r.error and not r.target_novel),
        ks={task: tuple(v) for task, v in ks.items()},
    )


def numpy_split(dataset: Dataset, ratios: tuple[float, float, float],
                seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """`ehr.split_patients` as it was while numpy's `default_rng(seed)`
    drew its permutation."""
    n = len(dataset.patients)
    exact = [r * n for r in ratios]
    sizes = [int(math.floor(x)) for x in exact]
    remainders = [x - s for x, s in zip(exact, sizes)]
    while sum(sizes) < n:
        idx = max(range(3), key=lambda i: (remainders[i], -i))
        sizes[idx] += 1
        remainders[idx] = -1.0
    order = np.random.default_rng(seed).permutation(n)
    bounds = np.cumsum([0] + sizes)
    parts = []
    for i in range(3):
        chosen = sorted(order[bounds[i]:bounds[i + 1]])
        parts.append(Dataset(patients=tuple(dataset.patients[j] for j in chosen)))
    return parts[0], parts[1], parts[2]


def numpy_mock_evidence_aware(prompt: str, seed: int, swap_prob: float = 0.1) -> str:
    """`llm.mock_evidence_aware` as it was while numpy drew its noise."""
    names = _candidate_names(prompt)
    supported_set = _supported_names(prompt)
    prioritized = any(
        line.startswith(HISTORY_TITLE_PRIORITIZED) for line in prompt.splitlines()
    )
    supported = [n for n in names if n in supported_set]
    rest = [n for n in names if n not in supported_set]

    rng = np.random.default_rng(seed)
    if not prioritized:
        rest = [rest[i] for i in rng.permutation(len(rest))]
    else:
        for i in range(len(rest) - 1):
            if rng.random() < swap_prob:
                rest[i], rest[i + 1] = rest[i + 1], rest[i]
    return "Answer: " + ", ".join(supported + rest)
