"""Shared backend plumbing: the logit vector both scorers emit, which only
`train` builds, and the encoding of instances over a fixed CCS vocabulary
into the packed ragged batch both scorers take."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import field, record
from ..config import BackendError, TrainConfig
from ..ehr import PredictionInstance, Ranking, code_index, vocab_index


@record(frozen=True)
class LogitVector(Ranking):
    """A scorer's per-CCS scores, aligned to a sorted vocabulary, and the
    ranking they give: numpy's stable argsort of the negated scores."""

    positions: tuple[int, ...] = field(init=False)
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        if scores.shape != (len(self.vocab),):
            raise BackendError(f"scores shape {scores.shape} does not match vocabulary "
                               f"size {len(self.vocab)}")
        if not np.all(np.isfinite(scores)):
            raise BackendError("non-finite logit")
        # The vocabulary is sorted, so a stable sort breaks score ties by code.
        object.__setattr__(self, "positions", np.argsort(-scores, kind="stable").tolist())
        super().__post_init__()


@record(frozen=True)
class EncodedInstance:
    """One prediction instance as vocabulary indices: per-visit code index
    arrays plus a multi-hot target over the full vocabulary."""

    visit_idx: tuple[np.ndarray, ...]
    target: np.ndarray


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


def encode_batch(patients: Sequence[PredictionInstance],
                 vocab: tuple[str, ...]) -> list[EncodedInstance]:
    index = vocab_index(vocab)
    return [encode_instance(p, index) for p in patients]


@record(frozen=True)
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
