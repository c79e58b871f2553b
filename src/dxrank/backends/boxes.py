"""Box-embedding scorer: each CCS code is an axis-aligned box, visits and
patients aggregate code boxes via attention (centers) and elementwise max
(offsets), and a candidate's logit is the log soft intersection volume
between the patient box and the candidate's box.

The soft volume uses a Gumbel-softplus approximation per dimension:
beta * log(1 + exp(overlap/beta - 2*gamma)), with gamma the
Euler-Mascheroni constant (the Gumbel-box volume of Dasgupta et al.,
NeurIPS 2020). The argument sign is chosen so volume grows with overlap.

Training and inference score packed ragged batches (`PackedBatch`) with
segment reductions; `boxlm_logits` scores a sequence of instances as one.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import record
from ..ehr import PredictionInstance
from .base import BackendError, PackedBatch, encode_batch, pack_instances
from .numerics import ParamTree, segment_ids, segment_softmax, segment_softmax_vjp, \
    sigmoid, softplus, softplus_inv

GAMMA = 0.5772156649


@record(frozen=True)
class VolumeConfig:
    beta: float = 0.1
    gamma: float = GAMMA
    eps: float = 1e-30

    def __post_init__(self):
        if self.beta <= 0 or self.eps <= 0:
            raise BackendError("beta and eps must be positive")


def boxlm_logits(
    patients: Sequence[PredictionInstance],
    vocab: tuple[str, ...],
    tensors: ParamTree,
    cfg: VolumeConfig = VolumeConfig(),
) -> np.ndarray:
    """The (n, vocab) logits of n patients, scored as one batch: score(c) =
    log(max(eps, volume(patient box ∩ code box c))) for every CCS code."""
    batch = pack_instances(encode_batch(patients, vocab))
    return box_forward(tensors, batch, cfg)[0]


# ---------------------------------------------------------------------------
# Batched array forward/backward used by training and inference
# ---------------------------------------------------------------------------
#
# Every per-instance result is computed by row-wise operations and segment
# reductions, so an instance's logits do not depend on the rest of its batch.


def _segment_max(x: np.ndarray, starts: np.ndarray,
                 ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise max over each segment's rows, and the row each entry came
    from; ties go to the first such row, as argmax routes them."""
    top = np.maximum.reduceat(x, starts)
    rows = np.where(x == top[ids], np.arange(len(x))[:, None], len(x))
    return top, np.minimum.reduceat(rows, starts)


# Instances per block of the (instance, code, dim) volume arrays. Blocks keep
# the temporaries of a training batch small and in cache; only the softplus
# values and masks the backward needs span the whole batch.
VOLUME_BLOCK = 4


def _volume_blocks(n: int) -> list[slice]:
    return [slice(lo, lo + VOLUME_BLOCK) for lo in range(0, n, VOLUME_BLOCK)]


def _log_volume(cu: np.ndarray, cl: np.ndarray, upper: np.ndarray,
                lower: np.ndarray, cfg: VolumeConfig, sp: np.ndarray,
                tail: np.ndarray) -> np.ndarray:
    """Log soft volume of each patient box (upper, lower: one row per
    instance) intersected with every code box (cu, cl). Writes
    softplus(max(z, -33)) into sp and z < -30 into tail for the backward."""
    z = np.minimum(cu, upper)
    np.maximum(cl, lower, out=sp)
    z -= sp
    z /= cfg.beta
    z -= 2.0 * cfg.gamma
    np.less(z, -30.0, out=tail)
    np.maximum(z, -33.0, out=sp)
    buf = np.abs(sp)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    np.log1p(buf, out=buf)
    np.maximum(sp, 0.0, out=sp)
    sp += buf
    # log_softplus(z) of tests/reference.py: log(sp), with a linear tail below -33.
    np.log(sp, out=buf)
    np.copyto(buf, z, where=z < -33.0)
    buf += np.log(cfg.beta)
    return np.sum(buf, axis=2)


def _dlog_volume(sp: np.ndarray, tail: np.ndarray, dlogits: np.ndarray,
                 cfg: VolumeConfig) -> np.ndarray:
    """d(loss)/d(m_max - m_min) from the forward's softplus values:
    the reference dlog_softplus(z) = sigmoid(z)/softplus(z) = -expm1(-sp)/sp,
    1 in the tail."""
    dm = np.negative(sp)
    np.expm1(dm, out=dm)
    dm /= sp
    np.negative(dm, out=dm)
    np.copyto(dm, 1.0, where=tail)
    dm *= dlogits[:, :, None]
    dm /= cfg.beta
    return dm


def box_forward(
    flat: ParamTree, batch: PackedBatch, cfg: VolumeConfig
) -> tuple[np.ndarray, dict]:
    """Per-CCS logits for every instance of the batch (one row each), plus
    the cache for box_backward."""
    center, q_code, q_visit = flat["center"], flat["attn_query"], flat["visit_weight_vec"]
    off = softplus(flat["offset_raw"])
    codes, v_starts, i_starts = batch.codes, batch.visit_starts, batch.instance_starts
    code_visit = segment_ids(v_starts, len(codes))
    visit_inst = segment_ids(i_starts, len(v_starts))

    # Visit boxes: attention over each visit's codes, max over their offsets.
    sub_c = center[codes]
    alpha = segment_softmax(np.sum(sub_c * q_code, axis=1), v_starts, code_visit)
    visit_centers = np.add.reduceat(alpha[:, None] * sub_c, v_starts)
    visit_offsets, visit_argmax = _segment_max(off[codes], v_starts, code_visit)

    # Patient boxes: attention over each instance's visits, max over offsets.
    weights = segment_softmax(np.sum(visit_centers * q_visit, axis=1),
                               i_starts, visit_inst)
    pc = np.add.reduceat(weights[:, None] * visit_centers, i_starts)
    po, po_arg = _segment_max(visit_offsets, i_starts, visit_inst)

    # Log soft volume of (patient box ∩ code box) over (instance, code, dim).
    cu, cl = center + off, center - off
    upper, lower = (pc + po)[:, None, :], (pc - po)[:, None, :]
    sp = np.empty(upper.shape[:1] + center.shape)
    tail = np.empty(sp.shape, dtype=bool)
    log_vol = np.empty(sp.shape[:2])
    for blk in _volume_blocks(len(i_starts)):
        log_vol[blk] = _log_volume(cu, cl, upper[blk], lower[blk], cfg, sp[blk], tail[blk])
    logits = np.maximum(np.log(cfg.eps), log_vol)

    cache = {
        "code_visit": code_visit,
        "visit_inst": visit_inst,
        "sub_c": sub_c,
        "alpha": alpha,
        "visit_argmax": visit_argmax,
        "visit_centers": visit_centers,
        "weights": weights,
        "po_arg": po_arg,
        "cu_wins_max": cu <= upper,
        "cl_wins_min": cl >= lower,
        "sp": sp,
        "tail": tail,
        "unclamped": log_vol > np.log(cfg.eps),
    }
    return logits, cache


def box_backward(
    flat: ParamTree,
    batch: PackedBatch,
    cache: dict,
    dlogits: np.ndarray,
    cfg: VolumeConfig,
    grads: ParamTree,
) -> None:
    """Accumulate d(loss)/d(params) into grads given d(loss)/d(logits), one
    row per instance of the batch."""
    q_code, q_visit = flat["attn_query"], flat["visit_weight_vec"]
    codes, v_starts, i_starts = batch.codes, batch.visit_starts, batch.instance_starts
    d = q_code.shape[0]

    # Each min/max sends its gradient to the code box or the patient box.
    dclamp = dlogits * cache["unclamped"]
    d_upper = np.zeros(flat["center"].shape)
    d_lower = np.zeros_like(d_upper)
    dp_up = np.empty((len(i_starts), d))
    dp_lo = np.empty_like(dp_up)
    for blk in _volume_blocks(len(i_starts)):
        dm = _dlog_volume(cache["sp"][blk], cache["tail"][blk], dclamp[blk], cfg)
        routed = np.multiply(dm, cache["cu_wins_max"][blk])
        d_upper += routed.sum(axis=0)
        dp_up[blk] = np.subtract(dm, routed, out=routed).sum(axis=1)
        np.multiply(dm, cache["cl_wins_min"][blk], out=routed)
        d_lower += routed.sum(axis=0)
        dp_lo[blk] = -np.subtract(dm, routed, out=routed).sum(axis=1)
    grads["center"] += d_upper - d_lower
    doff = d_upper + d_lower
    dpc = dp_up + dp_lo
    dpo = dp_up - dp_lo

    # Temporal pooling backward.
    vc, weights, visit_inst = cache["visit_centers"], cache["weights"], cache["visit_inst"]
    dpc_v = dpc[visit_inst]
    dvc = weights[:, None] * dpc_v
    du = segment_softmax_vjp(weights, np.sum(vc * dpc_v, axis=1), i_starts, visit_inst)
    grads["visit_weight_vec"] += vc.T @ du
    dvc += du[:, None] * q_visit

    # Visit attention backward.
    sub_c, alpha, code_visit = cache["sub_c"], cache["alpha"], cache["code_visit"]
    dvc_c = dvc[code_visit]
    dsub = alpha[:, None] * dvc_c
    ds = segment_softmax_vjp(alpha, np.sum(sub_c * dvc_c, axis=1), v_starts, code_visit)
    grads["attn_query"] += sub_c.T @ ds
    dsub += ds[:, None] * q_code
    np.add.at(grads["center"], codes, dsub)

    # A patient offset entry came from one visit, and that visit's entry from
    # one code.
    dims = np.arange(d)
    source = codes[cache["visit_argmax"][cache["po_arg"], dims]]
    np.add.at(doff, (source, dims), dpo)
    grads["offset_raw"] += doff * sigmoid(flat["offset_raw"])


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
