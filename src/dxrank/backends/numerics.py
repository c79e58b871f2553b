"""Numerically stable primitives shared by the scoring backends: sigmoid,
softplus family, segment softmax over packed ragged batches with its VJP,
binary cross-entropy with logits, and an Adam optimizer over flat parameter
dicts."""
from __future__ import annotations

import numpy as np

from .. import record


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_inv(y: np.ndarray) -> np.ndarray:
    """Inverse of softplus on positive inputs: log(expm1(y))."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("softplus_inv requires positive inputs")
    return np.log(np.expm1(y))


def segment_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """The segment of each of n rows, given the first row of each segment."""
    return np.repeat(np.arange(len(starts)), np.diff(starts, append=n))


def segment_softmax(s: np.ndarray, starts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Softmax of s within each segment; `ids` is segment_ids(starts, len(s))."""
    e = np.exp(s - np.maximum.reduceat(s, starts)[ids])
    return e / np.add.reduceat(e, starts)[ids]


def segment_softmax_vjp(y: np.ndarray, dy: np.ndarray, starts: np.ndarray,
                        ids: np.ndarray) -> np.ndarray:
    """Backprop through segment_softmax given its output y and upstream grad dy."""
    return y * (dy - np.add.reduceat(y * dy, starts)[ids])


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Stable binary cross-entropy with logits, averaged over the last axis:
    a scalar for one logit vector, one mean per row for a batch of them."""
    z = np.asarray(logits, dtype=float)
    y = np.asarray(targets, dtype=float)
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return np.mean(per, axis=-1)


def bce_with_logits_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of each of bce_with_logits' means w.r.t. the logits."""
    z = np.asarray(logits, dtype=float)
    y = np.asarray(targets, dtype=float)
    return (sigmoid(z) - y) / z.shape[-1]


# ---------------------------------------------------------------------------
# Flat parameter trees and Adam
# ---------------------------------------------------------------------------

ParamTree = dict[str, np.ndarray]

# Adam's moment decay rates and denominator guard; model.json records them.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def zeros_like_tree(params: ParamTree) -> ParamTree:
    return {k: np.zeros_like(v) for k, v in params.items()}


@record
class AdamState:
    m: ParamTree
    v: ParamTree
    step: int = 0


def adam_init(params: ParamTree) -> AdamState:
    return AdamState(m=zeros_like_tree(params), v=zeros_like_tree(params))


def adam_step(
    params: ParamTree,
    grads: ParamTree,
    state: AdamState,
    lr: float,
) -> None:
    """One Adam update, mutating params and state in place."""
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    for k in params:
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * g * g
        m_hat = state.m[k] / (1.0 - b1**t)
        v_hat = state.v[k] / (1.0 - b2**t)
        params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
