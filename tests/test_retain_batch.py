"""The batched retain forward/backward against a per-instance loop reference.

`loop_forward`/`loop_backward` below are the one-instance-at-a-time retain
math, with a Python loop over GRU steps; they are kept here only as the
oracle for the packed-batch versions in `dxrank.backends.retain`.
"""
from __future__ import annotations

import numpy as np
import pytest

from dxrank.backends.base import EncodedInstance, pack_instances
from dxrank.backends.numerics import (
    bce_with_logits,
    bce_with_logits_grad,
    sigmoid,
    zeros_like_tree,
)
from dxrank.backends.retain import init_retain_params, retain_backward, retain_forward

from .conftest import softmax_vjp
from .reference import softmax


def _gru_run(flat, prefix, xs):
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


def _gru_backward(flat, prefix, steps, dhs, grads):
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


def loop_forward(flat, enc: EncodedInstance):
    embed = flat["embed"]
    v = np.stack([embed[idx].sum(axis=0) for idx in enc.visit_idx])
    rv = v[::-1]
    g, steps_a = _gru_run(flat, "rnn_alpha", rv)
    h, steps_b = _gru_run(flat, "rnn_beta", rv)
    alpha = softmax(g @ flat["w_alpha"])
    gate = np.tanh(h @ flat["W_beta"].T)
    context = np.sum(alpha[:, None] * gate * rv, axis=0)
    logits = flat["W_o"] @ context + flat["b_o"]
    cache = {"rv": rv, "g": g, "h": h, "alpha": alpha, "gate": gate,
             "context": context, "steps_a": steps_a, "steps_b": steps_b}
    return logits, cache


def loop_backward(flat, enc: EncodedInstance, cache, dlogits, grads):
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
    for t, idx in enumerate(enc.visit_idx):
        np.add.at(grads["embed"], idx, dv[t])


def loop_loss_and_grads(flat, encoded):
    grads = zeros_like_tree(flat)
    scale = 1.0 / len(encoded)
    total = 0.0
    for enc in encoded:
        logits, cache = loop_forward(flat, enc)
        total += bce_with_logits(logits, enc.target)
        loop_backward(flat, enc, cache, bce_with_logits_grad(logits, enc.target) * scale,
                      grads)
    return total * scale, grads


def batch_loss_and_grads(flat, encoded):
    grads = zeros_like_tree(flat)
    batch = pack_instances(encoded)
    logits, cache = retain_forward(flat, batch)
    dlogits = bce_with_logits_grad(logits, batch.targets) / len(encoded)
    retain_backward(flat, batch, cache, dlogits, grads)
    return float(np.mean(bce_with_logits(logits, batch.targets))), grads


def random_instance(rng, c: int, max_visits: int = 5, max_codes: int = 5) -> EncodedInstance:
    visits = tuple(
        rng.choice(c, size=int(rng.integers(1, max_codes + 1)), replace=False)
        for _ in range(int(rng.integers(1, max_visits + 1)))
    )
    target = (rng.random(c) < 0.3).astype(float)
    return EncodedInstance(visit_idx=visits, target=target)


def random_params(rng, c: int, d: int) -> dict:
    """Weights larger than the initializer's, and non-zero biases, so the
    gates saturate unevenly and every gradient term is exercised."""
    flat = init_retain_params([f"C{i}" for i in range(c)], d, rng)
    return {k: rng.normal(0.0, 0.6, size=v.shape) for k, v in flat.items()}


CASES = [
    # (seed, vocabulary size, d, batch size)
    (0, 12, 4, 7),
    (1, 30, 8, 16),
    (2, 6, 3, 1),
    (3, 20, 5, 32),
]


def assert_close(got: float | np.ndarray, want: float | np.ndarray, key: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(got - want))) / scale
    assert err <= 1e-12, f"{key}: relative error {err:.3g}"


@pytest.mark.parametrize("seed,c,d,n", CASES)
def test_batched_loss_and_gradients_match_the_loop(seed, c, d, n):
    rng = np.random.default_rng(seed)
    flat = random_params(rng, c, d)
    encoded = [random_instance(rng, c) for _ in range(n)]
    # Edge shapes: a 1-visit instance with a 1-code visit, and a long one
    # of 1-code visits, so the batch mixes lengths 1 to 8.
    encoded[0] = EncodedInstance(visit_idx=(np.array([c - 1]),), target=encoded[0].target)
    if n > 1:
        encoded[-1] = EncodedInstance(
            visit_idx=tuple(np.array([i % c]) for i in range(8)), target=encoded[-1].target)

    want_loss, want = loop_loss_and_grads(flat, encoded)
    got_loss, got = batch_loss_and_grads(flat, encoded)
    assert_close(got_loss, want_loss, "loss")
    for key in flat:
        assert_close(got[key], want[key], key)


def test_batch_of_equal_lengths_matches_the_loop():
    # Every instance runs every GRU step, so no row ever leaves the prefix.
    rng = np.random.default_rng(9)
    flat = random_params(rng, 10, 4)
    encoded = [random_instance(rng, 10, max_visits=1) for _ in range(3)]
    encoded = [EncodedInstance(e.visit_idx * 3, e.target) for e in encoded]
    want_loss, want = loop_loss_and_grads(flat, encoded)
    got_loss, got = batch_loss_and_grads(flat, encoded)
    assert_close(got_loss, want_loss, "loss")
    for key in flat:
        assert_close(got[key], want[key], key)


def test_instance_logits_match_the_loop_in_any_batch():
    rng = np.random.default_rng(11)
    c, d = 40, 16
    flat = random_params(rng, c, d)
    encoded = [random_instance(rng, c, max_visits=6, max_codes=8) for _ in range(16)]
    together, _ = retain_forward(flat, pack_instances(encoded))
    reversed_, _ = retain_forward(flat, pack_instances(encoded[::-1]))
    for i, enc in enumerate(encoded):
        want, _ = loop_forward(flat, enc)
        assert_close(together[i], want, f"logits[{i}]")
        assert_close(reversed_[len(encoded) - 1 - i], want, f"reversed logits[{i}]")
