"""Shared backend plumbing: the labeled logit vector both scorers emit,
the training configuration, and instance encoding over a fixed CCS
vocabulary, one instance at a time or packed into a ragged batch."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..ehr import PredictionInstance


class BackendError(ValueError):
    """Raised for shape mismatches, unknown codes, or bad backend kinds."""


@dataclass(frozen=True)
class LogitVector:
    """Per-CCS scores aligned to a sorted vocabulary."""

    vocab: tuple[str, ...]
    scores: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vocab", tuple(self.vocab))
        object.__setattr__(self, "_index", vocab_index(self.vocab))
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        if scores.shape != (len(self.vocab),):
            raise BackendError(
                f"scores shape {scores.shape} does not match vocabulary "
                f"size {len(self.vocab)}"
            )
        if not np.all(np.isfinite(scores)):
            raise BackendError("non-finite logit")

    def score(self, code: str) -> float:
        try:
            return float(self.scores[self._index[code]])
        except KeyError:
            raise BackendError(f"CCS code {code!r} not in logit vector") from None

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.vocab, self.scores.tolist()))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-2
    batch_size: int = 16
    seed: int = 0
    d: int = 16
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.epochs < 0:
            raise BackendError("epochs must be non-negative")
        if self.learning_rate < 0:
            raise BackendError("learning_rate must be non-negative")
        if self.batch_size < 1 or self.d < 1:
            raise BackendError("batch_size and d must be positive")


@dataclass(frozen=True)
class EncodedInstance:
    """One prediction instance as vocabulary indices: per-visit code index
    arrays plus a multi-hot target over the full vocabulary."""

    visit_idx: tuple[np.ndarray, ...]
    target: np.ndarray


def code_index(vocab: tuple[str, ...]) -> dict[str, int]:
    return {c: i for i, c in enumerate(vocab)}


# Every logit vector of a model shares one vocabulary, so its code -> position
# map is built once. Callers must not mutate the returned dict.
vocab_index = lru_cache(maxsize=8)(code_index)


def encode_instance(
    instance: PredictionInstance, index: dict[str, int]
) -> EncodedInstance:
    try:
        visit_idx = tuple(
            np.array([index[c] for c in v.ccs], dtype=np.intp)
            for v in instance.input_visits
        )
        target = np.zeros(len(index))
        target[[index[c] for c in sorted(instance.target_overall)]] = 1.0
    except KeyError as exc:
        raise BackendError(
            f"CCS code {exc.args[0]!r} has no trained parameters"
        ) from None
    return EncodedInstance(visit_idx=visit_idx, target=target)


@dataclass(frozen=True)
class PackedBatch:
    """Encoded instances packed for batched scoring: every visit's code
    indices concatenated in order, the offset in `codes` of each visit's
    first code, the offset in the visit list of each instance's first
    visit, and one multi-hot target row per instance."""

    codes: np.ndarray
    visit_starts: np.ndarray
    instance_starts: np.ndarray
    targets: np.ndarray


def _starts(lengths: list[int]) -> np.ndarray:
    return np.cumsum([0] + lengths[:-1], dtype=np.intp)


def pack_instances(encoded: Sequence[EncodedInstance]) -> PackedBatch:
    """Pack instances, in order, into one ragged batch."""
    visits = [idx for enc in encoded for idx in enc.visit_idx]
    if not encoded or any(not enc.visit_idx for enc in encoded):
        raise BackendError("every instance needs at least one input visit")
    if any(len(idx) == 0 for idx in visits):
        raise BackendError("every input visit needs at least one CCS code")
    return PackedBatch(
        codes=np.concatenate(visits),
        visit_starts=_starts([len(idx) for idx in visits]),
        instance_starts=_starts([len(enc.visit_idx) for enc in encoded]),
        targets=np.stack([enc.target for enc in encoded]),
    )
