"""Reverse-time attention sequence scorer (RETAIN, Choi et al., NeurIPS
2016). Multi-hot visits are embedded, two GRUs run over the reversed visit
sequence, one producing scalar visit attention and the other a
per-dimension gate; the gated, attention-weighted sum of visit embeddings
feeds a linear output layer over the CCS vocabulary.

Training and inference score packed ragged batches (`PackedBatch`), as the
box scorer does.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ehr import PredictionInstance
from .base import PackedBatch, encode_batch, pack_instances
from .numerics import ParamTree, segment_ids, segment_softmax, segment_softmax_vjp, \
    sigmoid


def retain_logits(patients: Sequence[PredictionInstance], vocab: tuple[str, ...],
                  tensors: ParamTree) -> np.ndarray:
    """The (n, vocab) logits of n patients, scored as one batch."""
    batch = pack_instances(encode_batch(patients, vocab))
    return retain_forward(tensors, batch)[0]


# ---------------------------------------------------------------------------
# Batched array forward/backward used by training and inference
# ---------------------------------------------------------------------------


def _gru_steps(batch: PackedBatch) -> list[np.ndarray]:
    """The packed visit rows of each GRU step. Step t takes the t-th visit
    from the end of every instance with more than t visits, longest first,
    so the instances still running at a step are a prefix of the last
    step's and need no mask."""
    lengths = np.diff(batch.instance_starts, append=len(batch.visit_starts))
    order = np.argsort(-lengths, kind="stable")
    last = (batch.instance_starts + lengths - 1)[order]
    return [last[:np.count_nonzero(lengths > t)] - t for t in range(lengths.max())]


def _gru_forward(flat: ParamTree, prefix: str, xs: np.ndarray,
                 steps: list[np.ndarray]) -> tuple[np.ndarray, dict]:
    """Run one GRU over the visit inputs xs in step order; returns each
    visit's output and the cache for _gru_backward."""
    d = xs.shape[1]
    w = np.concatenate([flat[f"{prefix}/w_{g}"] for g in "zrh"])
    b = np.concatenate([flat[f"{prefix}/b_{g}"] for g in "zrh"])
    u_z, u_r, u_h = (flat[f"{prefix}/u_{g}"] for g in "zrh")
    a = xs @ w.T + b
    hs, h_prev, z, r, hb = (np.empty_like(xs) for _ in range(5))
    h = np.zeros((len(steps[0]), d))
    for rows in steps:
        h = h_prev[rows] = h[:len(rows)]
        a_t = a[rows]
        z_t = z[rows] = sigmoid(a_t[:, :d] + h @ u_z.T)
        r_t = r[rows] = sigmoid(a_t[:, d:2 * d] + h @ u_r.T)
        hb_t = hb[rows] = np.tanh(a_t[:, 2 * d:] + (r_t * h) @ u_h.T)
        h = hs[rows] = (1.0 - z_t) * h + z_t * hb_t
    return hs, {"x": xs, "w": w, "h_prev": h_prev, "z": z, "r": r, "hb": hb}


def _gru_backward(flat: ParamTree, prefix: str, cache: dict, dhs: np.ndarray,
                  steps: list[np.ndarray], grads: ParamTree) -> np.ndarray:
    """BPTT through one GRU given d(loss)/d(each visit's output); returns
    d(loss)/d(inputs). The weight gradients are whole-batch matmuls over
    every visit's pre-activation gradients."""
    d = dhs.shape[1]
    u_z, u_r, u_h = (flat[f"{prefix}/u_{g}"] for g in "zrh")
    h_prev, z, r, hb = cache["h_prev"], cache["z"], cache["r"], cache["hb"]
    da = np.empty((len(dhs), 3 * d))
    # An instance whose last step this is gets no gradient from a later one.
    dh_next = np.zeros((len(steps[0]), d))
    for rows in reversed(steps):
        dh = dhs[rows] + dh_next[:len(rows)]
        z_t, r_t, hb_t, hp_t = z[rows], r[rows], hb[rows], h_prev[rows]
        da_h = dh * z_t * (1.0 - hb_t * hb_t)
        drh = da_h @ u_h
        da_r = drh * hp_t * r_t * (1.0 - r_t)
        da_z = dh * (hb_t - hp_t) * z_t * (1.0 - z_t)
        da[rows] = np.hstack([da_z, da_r, da_h])
        dh_next[:len(rows)] = dh * (1.0 - z_t) + drh * r_t + da_r @ u_r + da_z @ u_z
    da_z, da_r, da_h = np.hsplit(da, 3)
    for g, da_g, h_in in (("z", da_z, h_prev), ("r", da_r, h_prev), ("h", da_h, r * h_prev)):
        grads[f"{prefix}/w_{g}"] += da_g.T @ cache["x"]
        grads[f"{prefix}/u_{g}"] += da_g.T @ h_in
        grads[f"{prefix}/b_{g}"] += da_g.sum(axis=0)
    return da @ cache["w"]


def retain_forward(flat: ParamTree, batch: PackedBatch) -> tuple[np.ndarray, dict]:
    """Per-CCS logits for every instance of the batch (one row each), plus
    the cache for retain_backward."""
    i_starts = batch.instance_starts
    v = np.add.reduceat(flat["embed"][batch.codes], batch.visit_starts)
    steps = _gru_steps(batch)
    g, gru_a = _gru_forward(flat, "rnn_alpha", v, steps)
    h, gru_b = _gru_forward(flat, "rnn_beta", v, steps)
    visit_inst = segment_ids(i_starts, len(v))
    alpha = segment_softmax(g @ flat["w_alpha"], i_starts, visit_inst)
    gate = np.tanh(h @ flat["W_beta"].T)
    context = np.add.reduceat(alpha[:, None] * gate * v, i_starts)
    logits = context @ flat["W_o"].T + flat["b_o"]
    cache = {"v": v, "steps": steps, "gru_a": gru_a, "gru_b": gru_b, "g": g, "h": h,
             "visit_inst": visit_inst, "alpha": alpha, "gate": gate, "context": context}
    return logits, cache


def retain_backward(flat: ParamTree, batch: PackedBatch, cache: dict,
                    dlogits: np.ndarray, grads: ParamTree) -> None:
    """Accumulate d(loss)/d(params) into grads given d(loss)/d(logits), one
    row per instance of the batch."""
    i_starts, visit_inst = batch.instance_starts, cache["visit_inst"]
    v, alpha, gate, steps = cache["v"], cache["alpha"], cache["gate"], cache["steps"]
    grads["W_o"] += dlogits.T @ cache["context"]
    grads["b_o"] += dlogits.sum(axis=0)
    dcontext = (dlogits @ flat["W_o"])[visit_inst]

    dalpha = np.sum(gate * v * dcontext, axis=1)
    dgate = alpha[:, None] * v * dcontext
    dv = alpha[:, None] * gate * dcontext

    de = segment_softmax_vjp(alpha, dalpha, i_starts, visit_inst)
    grads["w_alpha"] += cache["g"].T @ de
    da_gate = dgate * (1.0 - gate * gate)
    grads["W_beta"] += da_gate.T @ cache["h"]

    dg = np.outer(de, flat["w_alpha"])
    dh = da_gate @ flat["W_beta"]
    dv += _gru_backward(flat, "rnn_alpha", cache["gru_a"], dg, steps, grads)
    dv += _gru_backward(flat, "rnn_beta", cache["gru_b"], dh, steps, grads)
    code_visit = segment_ids(batch.visit_starts, len(batch.codes))
    np.add.at(grads["embed"], batch.codes, dv[code_visit])


def init_retain_params(
    vocab: Sequence[str], d: int, rng: np.random.Generator
) -> ParamTree:
    """Seeded init: weights normal(0, 0.1), biases zero. Each GRU's w_*
    act on the input and u_* on the hidden state."""
    r = len(vocab)
    flat: ParamTree = {"embed": rng.normal(0.0, 0.1, size=(r, d))}
    for prefix in ("rnn_alpha", "rnn_beta"):
        for gate in "zrh":
            flat[f"{prefix}/w_{gate}"] = rng.normal(0.0, 0.1, size=(d, d))
            flat[f"{prefix}/u_{gate}"] = rng.normal(0.0, 0.1, size=(d, d))
            flat[f"{prefix}/b_{gate}"] = np.zeros(d)
    flat["w_alpha"] = rng.normal(0.0, 0.1, size=d)
    flat["W_beta"] = rng.normal(0.0, 0.1, size=(d, d))
    flat["W_o"] = rng.normal(0.0, 0.1, size=(r, d))
    flat["b_o"] = np.zeros(r)
    return flat
