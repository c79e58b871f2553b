"""Reverse-time attention sequence scorer. Multi-hot visits are embedded,
two GRUs run over the reversed visit sequence, one producing scalar visit
attention and the other a per-dimension gate; the gated, attention-weighted
sum of visit embeddings feeds a linear output layer over the CCS vocabulary.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ehr import PredictionInstance
from .base import BackendError, EncodedInstance, LogitVector, encode_instance, vocab_index
from .numerics import ParamTree, sigmoid, softmax, softmax_vjp

GRU_FIELDS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")
GRU_BLOCKS = ("rnn_alpha", "rnn_beta")
# RetainParams' tensors outside its GRU blocks, named as in its flat tree.
RETAIN_TENSORS = ("embed", "w_alpha", "W_beta", "W_o", "b_o")


@dataclass(frozen=True)
class GruParams:
    """One GRU cell; w_* act on the input, u_* on the hidden state."""

    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    u_h: np.ndarray
    b_h: np.ndarray

    def __post_init__(self):
        for name in GRU_FIELDS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        d = self.b_z.shape[0]
        for name in GRU_FIELDS:
            want = (d,) if name.startswith("b") else (d, d)
            if getattr(self, name).shape != want:
                raise BackendError(f"GRU block {name} has shape "
                                   f"{getattr(self, name).shape}, expected {want}")


@dataclass(frozen=True)
class RetainParams:
    """Sequence-scorer parameters over a fixed CCS vocabulary (r = |CCS|)."""

    vocab: tuple[str, ...]
    embed: np.ndarray
    rnn_alpha: GruParams
    rnn_beta: GruParams
    w_alpha: np.ndarray
    W_beta: np.ndarray
    W_o: np.ndarray
    b_o: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vocab", tuple(self.vocab))
        for name in RETAIN_TENSORS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        r = len(self.vocab)
        d = self.w_alpha.shape[0]
        checks = {
            "embed": (r, d),
            "w_alpha": (d,),
            "W_beta": (d, d),
            "W_o": (r, d),
            "b_o": (r,),
        }
        for name, want in checks.items():
            if getattr(self, name).shape != want:
                raise BackendError(f"{name} has shape {getattr(self, name).shape}, "
                                   f"expected {want}")
        if self.rnn_alpha.b_z.shape != (d,) or self.rnn_beta.b_z.shape != (d,):
            raise BackendError("GRU hidden size does not match d")

    @property
    def d(self) -> int:
        return int(self.w_alpha.shape[0])

    def flat(self) -> ParamTree:
        out: ParamTree = {name: getattr(self, name) for name in RETAIN_TENSORS}
        for prefix in GRU_BLOCKS:
            for name in GRU_FIELDS:
                out[f"{prefix}/{name}"] = getattr(getattr(self, prefix), name)
        return out

    @classmethod
    def from_flat(cls, vocab: Sequence[str], flat: ParamTree) -> RetainParams:
        blocks = {
            prefix: GruParams(**{n: flat[f"{prefix}/{n}"] for n in GRU_FIELDS})
            for prefix in GRU_BLOCKS
        }
        return cls(vocab=tuple(vocab), **blocks,
                   **{name: flat[name] for name in RETAIN_TENSORS})


def retain_logits(patient: PredictionInstance, params: RetainParams) -> LogitVector:
    """Logits over the CCS vocabulary for one prediction instance."""
    encoded = encode_instance(patient, vocab_index(params.vocab))
    logits, _ = retain_forward(params.flat(), encoded)
    return LogitVector(vocab=params.vocab, scores=logits)


# ---------------------------------------------------------------------------
# Array forward/backward
# ---------------------------------------------------------------------------


def _gru_run(flat: ParamTree, prefix: str, xs: np.ndarray) -> tuple[np.ndarray, list]:
    w_z, u_z, b_z = flat[f"{prefix}/w_z"], flat[f"{prefix}/u_z"], flat[f"{prefix}/b_z"]
    w_r, u_r, b_r = flat[f"{prefix}/w_r"], flat[f"{prefix}/u_r"], flat[f"{prefix}/b_r"]
    w_h, u_h, b_h = flat[f"{prefix}/w_h"], flat[f"{prefix}/u_h"], flat[f"{prefix}/b_h"]
    h = np.zeros(b_z.shape[0])
    outs = np.empty((len(xs), h.shape[0]))
    steps = []
    for t, x in enumerate(xs):
        z = sigmoid(w_z @ x + u_z @ h + b_z)
        r = sigmoid(w_r @ x + u_r @ h + b_r)
        hb = np.tanh(w_h @ x + u_h @ (r * h) + b_h)
        h_new = (1.0 - z) * h + z * hb
        steps.append((x, h, z, r, hb))
        outs[t] = h_new
        h = h_new
    return outs, steps


def _gru_backward(
    flat: ParamTree, prefix: str, steps: list, dhs: np.ndarray, grads: ParamTree
) -> np.ndarray:
    """BPTT through one GRU; returns d(loss)/d(inputs)."""
    u_z, u_r, u_h = flat[f"{prefix}/u_z"], flat[f"{prefix}/u_r"], flat[f"{prefix}/u_h"]
    w_z, w_r, w_h = flat[f"{prefix}/w_z"], flat[f"{prefix}/w_r"], flat[f"{prefix}/w_h"]
    dxs = np.zeros((len(steps), dhs.shape[1]))
    dh_next = np.zeros(dhs.shape[1])
    for t in range(len(steps) - 1, -1, -1):
        x, h_prev, z, r, hb = steps[t]
        dh = dhs[t] + dh_next
        dz = dh * (hb - h_prev)
        dhb = dh * z
        dh_prev = dh * (1.0 - z)

        da_h = dhb * (1.0 - hb * hb)
        grads[f"{prefix}/w_h"] += np.outer(da_h, x)
        grads[f"{prefix}/u_h"] += np.outer(da_h, r * h_prev)
        grads[f"{prefix}/b_h"] += da_h
        drh = u_h.T @ da_h
        dr = drh * h_prev
        dh_prev += drh * r

        da_r = dr * r * (1.0 - r)
        grads[f"{prefix}/w_r"] += np.outer(da_r, x)
        grads[f"{prefix}/u_r"] += np.outer(da_r, h_prev)
        grads[f"{prefix}/b_r"] += da_r
        dh_prev += u_r.T @ da_r

        da_z = dz * z * (1.0 - z)
        grads[f"{prefix}/w_z"] += np.outer(da_z, x)
        grads[f"{prefix}/u_z"] += np.outer(da_z, h_prev)
        grads[f"{prefix}/b_z"] += da_z
        dh_prev += u_z.T @ da_z

        dxs[t] = w_z.T @ da_z + w_r.T @ da_r + w_h.T @ da_h
        dh_next = dh_prev
    return dxs


def retain_forward(flat: ParamTree, encoded: EncodedInstance) -> tuple[np.ndarray, dict]:
    """Per-CCS logits for one instance, plus the cache for retain_backward."""
    embed = flat["embed"]
    v = np.stack([embed[idx].sum(axis=0) for idx in encoded.visit_idx])
    rv = v[::-1]
    g, steps_a = _gru_run(flat, "rnn_alpha", rv)
    h, steps_b = _gru_run(flat, "rnn_beta", rv)
    e = g @ flat["w_alpha"]
    alpha = softmax(e)
    gate = np.tanh(h @ flat["W_beta"].T)
    context = np.sum(alpha[:, None] * gate * rv, axis=0)
    logits = flat["W_o"] @ context + flat["b_o"]
    cache = {
        "rv": rv, "g": g, "h": h, "alpha": alpha, "gate": gate,
        "context": context, "steps_a": steps_a, "steps_b": steps_b,
    }
    return logits, cache


def retain_backward(
    flat: ParamTree,
    encoded: EncodedInstance,
    cache: dict,
    dlogits: np.ndarray,
    grads: ParamTree,
) -> None:
    """Accumulate d(loss)/d(params) into grads given d(loss)/d(logits)."""
    rv, alpha, gate = cache["rv"], cache["alpha"], cache["gate"]
    grads["W_o"] += np.outer(dlogits, cache["context"])
    grads["b_o"] += dlogits
    dcontext = flat["W_o"].T @ dlogits

    dalpha = (gate * rv) @ dcontext
    dgate = alpha[:, None] * rv * dcontext[None, :]
    drv = alpha[:, None] * gate * dcontext[None, :]

    de = softmax_vjp(alpha, dalpha)
    grads["w_alpha"] += cache["g"].T @ de
    dg = np.outer(de, flat["w_alpha"])

    da_gate = dgate * (1.0 - gate * gate)
    grads["W_beta"] += da_gate.T @ cache["h"]
    dh = da_gate @ flat["W_beta"]

    drv = drv + _gru_backward(flat, "rnn_alpha", cache["steps_a"], dg, grads)
    drv += _gru_backward(flat, "rnn_beta", cache["steps_b"], dh, grads)
    dv = drv[::-1]
    for t, idx in enumerate(encoded.visit_idx):
        np.add.at(grads["embed"], idx, dv[t])


def init_retain_params(
    vocab: Sequence[str], d: int, rng: np.random.Generator
) -> ParamTree:
    """Seeded init: weights normal(0, 0.1), biases zero."""
    r = len(vocab)
    flat: ParamTree = {"embed": rng.normal(0.0, 0.1, size=(r, d))}
    for prefix in GRU_BLOCKS:
        for name in GRU_FIELDS:
            if name.startswith("b"):
                flat[f"{prefix}/{name}"] = np.zeros(d)
            else:
                flat[f"{prefix}/{name}"] = rng.normal(0.0, 0.1, size=(d, d))
    flat["w_alpha"] = rng.normal(0.0, 0.1, size=d)
    flat["W_beta"] = rng.normal(0.0, 0.1, size=(d, d))
    flat["W_o"] = rng.normal(0.0, 0.1, size=(r, d))
    flat["b_o"] = np.zeros(r)
    return flat
