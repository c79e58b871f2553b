"""Numerically stable primitives shared by the scoring backends: sigmoid,
softplus family, softmax with its VJP, binary cross-entropy with logits,
and an Adam optimizer over flat parameter dicts."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    pos = 1.0 / (1.0 + np.exp(-np.maximum(x, 0.0)))
    ex = np.exp(np.minimum(x, 0.0))
    return np.where(x >= 0, pos, ex / (1.0 + ex))


def softplus(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_inv(y: np.ndarray) -> np.ndarray:
    """Inverse of softplus on positive inputs: log(expm1(y))."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("softplus_inv requires positive inputs")
    return np.log(np.expm1(y))


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


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_vjp(y: np.ndarray, dy: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backprop through softmax given its output y and upstream grad dy."""
    dot = np.sum(y * dy, axis=axis, keepdims=True)
    return y * (dy - dot)


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


def zeros_like_tree(params: ParamTree) -> ParamTree:
    return {k: np.zeros_like(v) for k, v in params.items()}


@dataclass
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
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One Adam update, mutating params and state in place."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    for k in params:
        g = grads[k]
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * g * g
        m_hat = state.m[k] / (1.0 - b1**t)
        v_hat = state.v[k] / (1.0 - b2**t)
        params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
