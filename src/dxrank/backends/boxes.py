"""Box-embedding scorer: each CCS code is an axis-aligned box, visits and
patients aggregate code boxes via attention (centers) and elementwise max
(offsets), and a candidate's logit is the log soft intersection volume
between the patient box and the candidate's box.

The soft volume uses a Gumbel-softplus approximation per dimension:
beta * log(1 + exp(overlap/beta - 2*gamma)), with gamma the
Euler-Mascheroni constant. The argument sign is chosen so volume grows
with overlap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ehr import PredictionInstance
from .base import BackendError, EncodedInstance, LogitVector, encode_instance, vocab_index
from .numerics import (
    ParamTree,
    dlog_softplus,
    log_softplus,
    sigmoid,
    softmax,
    softmax_vjp,
    softplus,
    softplus_inv,
)

GAMMA = 0.5772156649


@dataclass(frozen=True)
class VolumeConfig:
    beta: float = 0.1
    gamma: float = GAMMA
    eps: float = 1e-30

    def __post_init__(self):
        if self.beta <= 0 or self.eps <= 0:
            raise BackendError("beta and eps must be positive")


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


@dataclass(frozen=True)
class BoxLMParams:
    """All box-backend parameters over a fixed CCS vocabulary."""

    vocab: tuple[str, ...]
    center: np.ndarray
    offset_raw: np.ndarray
    attn_query: np.ndarray
    visit_weight_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vocab", tuple(self.vocab))
        for name in ("center", "offset_raw", "attn_query", "visit_weight_vec"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        c, d = len(self.vocab), self.attn_query.shape[-1]
        if self.center.shape != (c, d) or self.offset_raw.shape != (c, d):
            raise BackendError("code box arrays do not match vocabulary and d")
        if self.attn_query.shape != (d,) or self.visit_weight_vec.shape != (d,):
            raise BackendError("query vectors do not match d")

    @property
    def d(self) -> int:
        return int(self.attn_query.shape[0])

    @property
    def code_boxes(self) -> dict[str, BoxEmbed]:
        return {
            c: BoxEmbed(center=self.center[i], offset_raw=self.offset_raw[i])
            for i, c in enumerate(self.vocab)
        }

    def flat(self) -> ParamTree:
        return {
            "center": self.center,
            "offset_raw": self.offset_raw,
            "attn_query": self.attn_query,
            "visit_weight_vec": self.visit_weight_vec,
        }

    @classmethod
    def from_flat(cls, vocab: Sequence[str], flat: ParamTree) -> BoxLMParams:
        return cls(
            vocab=tuple(vocab),
            center=flat["center"],
            offset_raw=flat["offset_raw"],
            attn_query=flat["attn_query"],
            visit_weight_vec=flat["visit_weight_vec"],
        )


# ---------------------------------------------------------------------------
# Public box operations
# ---------------------------------------------------------------------------


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


def visit_box(code_boxes: Sequence[BoxEmbed], params: BoxLMParams) -> BoxEmbed:
    """Attention-weighted center over the visit's code boxes; offset is the
    elementwise max of effective offsets."""
    return _aggregate(code_boxes, params.attn_query, "visit")


def patient_box(visit_boxes: Sequence[BoxEmbed], params: BoxLMParams) -> BoxEmbed:
    """Temporal pooling of visit boxes with the visit weight vector."""
    return _aggregate(visit_boxes, params.visit_weight_vec, "patient")


def boxlm_logits(
    patient: PredictionInstance,
    params: BoxLMParams,
    cfg: VolumeConfig = VolumeConfig(),
) -> LogitVector:
    """score(c) = log(max(eps, volume(patient box ∩ code box c))) for every
    CCS code in the vocabulary."""
    encoded = encode_instance(patient, vocab_index(params.vocab))
    logits, _ = box_forward(params.flat(), encoded, cfg)
    return LogitVector(vocab=params.vocab, scores=logits)


# ---------------------------------------------------------------------------
# Array forward/backward used by training
# ---------------------------------------------------------------------------


def box_forward(
    flat: ParamTree, encoded: EncodedInstance, cfg: VolumeConfig
) -> tuple[np.ndarray, dict]:
    """Per-CCS logits for one instance, plus the cache for box_backward."""
    center, offset_raw = flat["center"], flat["offset_raw"]
    q_code, q_visit = flat["attn_query"], flat["visit_weight_vec"]
    off = softplus(offset_raw)
    d = center.shape[1]

    visit_centers = np.empty((len(encoded.visit_idx), d))
    visit_offsets = np.empty((len(encoded.visit_idx), d))
    visit_alphas = []
    visit_argmax = []
    for t, idx in enumerate(encoded.visit_idx):
        sub_c = center[idx]
        sub_o = off[idx]
        alpha = softmax(sub_c @ q_code)
        visit_centers[t] = alpha @ sub_c
        visit_offsets[t] = sub_o.max(axis=0)
        visit_alphas.append(alpha)
        visit_argmax.append(sub_o.argmax(axis=0))

    weights = softmax(visit_centers @ q_visit)
    pc = weights @ visit_centers
    po_arg = visit_offsets.argmax(axis=0)
    po = visit_offsets[po_arg, np.arange(d)]

    cu = center + off
    cl = center - off
    m_max = np.minimum(cu, pc + po)
    m_min = np.maximum(cl, pc - po)
    z = (m_max - m_min) / cfg.beta - 2.0 * cfg.gamma
    log_vol = np.sum(np.log(cfg.beta) + log_softplus(z), axis=1)
    logits = np.maximum(np.log(cfg.eps), log_vol)

    cache = {
        "off": off,
        "visit_alphas": visit_alphas,
        "visit_argmax": visit_argmax,
        "visit_centers": visit_centers,
        "weights": weights,
        "pc": pc,
        "po": po,
        "po_arg": po_arg,
        "cu_wins_max": cu <= pc + po,
        "cl_wins_min": cl >= pc - po,
        "z": z,
        "unclamped": log_vol > np.log(cfg.eps),
    }
    return logits, cache


def box_backward(
    flat: ParamTree,
    encoded: EncodedInstance,
    cache: dict,
    dlogits: np.ndarray,
    cfg: VolumeConfig,
    grads: ParamTree,
) -> None:
    """Accumulate d(loss)/d(params) into grads given d(loss)/d(logits)."""
    center, offset_raw = flat["center"], flat["offset_raw"]
    q_code, q_visit = flat["attn_query"], flat["visit_weight_vec"]
    off = cache["off"]
    d = center.shape[1]

    dz = (dlogits * cache["unclamped"])[:, None] * dlog_softplus(cache["z"])
    dm_max = dz / cfg.beta
    dm_min = -dz / cfg.beta

    cu_wins, cl_wins = cache["cu_wins_max"], cache["cl_wins_min"]
    dcu = dm_max * cu_wins
    dcl = dm_min * cl_wins
    dp_up = np.sum(dm_max * ~cu_wins, axis=0)
    dp_lo = np.sum(dm_min * ~cl_wins, axis=0)

    dcenter = dcu + dcl
    doff = dcu - dcl
    grads["center"] += dcenter
    dpc = dp_up + dp_lo
    dpo = dp_up - dp_lo

    # Temporal pooling backward.
    vc, weights = cache["visit_centers"], cache["weights"]
    dvc = weights[:, None] * dpc[None, :]
    dw = vc @ dpc
    du = softmax_vjp(weights, dw)
    grads["visit_weight_vec"] += vc.T @ du
    dvc += du[:, None] * q_visit[None, :]

    dvo = np.zeros_like(vc)
    dvo[cache["po_arg"], np.arange(d)] = dpo

    # Per-visit attention backward.
    doff_total = np.zeros_like(off)
    doff_total += doff
    for t, idx in enumerate(encoded.visit_idx):
        sub_c = center[idx]
        alpha = cache["visit_alphas"][t]
        dsub = alpha[:, None] * dvc[t][None, :]
        da = sub_c @ dvc[t]
        ds = softmax_vjp(alpha, da)
        grads["attn_query"] += sub_c.T @ ds
        dsub += ds[:, None] * q_code[None, :]
        np.add.at(grads["center"], idx, dsub)
        np.add.at(doff_total, (idx[cache["visit_argmax"][t]], np.arange(d)), dvo[t])

    grads["offset_raw"] += doff_total * sigmoid(offset_raw)


def init_box_params(vocab: Sequence[str], d: int, rng: np.random.Generator) -> ParamTree:
    """Seeded init: centers normal(0, 0.1); offsets around effective width
    0.5 with a small jitter so elementwise maxes have unique argmaxes."""
    c = len(vocab)
    raw_half = float(softplus_inv(0.5))
    return {
        "center": rng.normal(0.0, 0.1, size=(c, d)),
        "offset_raw": raw_half + rng.normal(0.0, 0.01, size=(c, d)),
        "attn_query": rng.normal(0.0, 0.1, size=d),
        "visit_weight_vec": rng.normal(0.0, 0.1, size=d),
    }
