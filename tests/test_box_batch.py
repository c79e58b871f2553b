"""The batched box forward/backward against a per-instance loop reference.

`loop_forward`/`loop_backward` below are the one-instance-at-a-time box
math, with a Python loop over visits; they are kept here only as the
oracle for the packed-batch versions in `dxrank.backends.boxes`.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from dxrank.backends.base import (
    BackendError,
    EncodedInstance,
    LogitVector,
    pack_instances,
)
from dxrank.backends.boxes import (
    VolumeConfig,
    box_backward,
    box_forward,
    boxlm_logits,
    init_box_params,
)
from dxrank.backends.numerics import (
    bce_with_logits,
    bce_with_logits_grad,
    sigmoid,
    softplus,
    zeros_like_tree,
)
from dxrank.ehr import PredictionInstance, Visit

from .conftest import softmax_vjp
from .reference import BoxEmbed, dlog_softplus, intersection_volume, log_softplus, softmax


def loop_forward(flat, enc: EncodedInstance, cfg: VolumeConfig):
    center, offset_raw = flat["center"], flat["offset_raw"]
    q_code, q_visit = flat["attn_query"], flat["visit_weight_vec"]
    off = softplus(offset_raw)
    d = center.shape[1]

    visit_centers = np.empty((len(enc.visit_idx), d))
    visit_offsets = np.empty((len(enc.visit_idx), d))
    visit_alphas, visit_argmax = [], []
    for t, idx in enumerate(enc.visit_idx):
        sub_c, sub_o = center[idx], off[idx]
        alpha = softmax(sub_c @ q_code)
        visit_centers[t] = alpha @ sub_c
        visit_offsets[t] = sub_o.max(axis=0)
        visit_alphas.append(alpha)
        visit_argmax.append(sub_o.argmax(axis=0))

    weights = softmax(visit_centers @ q_visit)
    pc = weights @ visit_centers
    po_arg = visit_offsets.argmax(axis=0)
    po = visit_offsets[po_arg, np.arange(d)]

    cu, cl = center + off, center - off
    m_max = np.minimum(cu, pc + po)
    m_min = np.maximum(cl, pc - po)
    z = (m_max - m_min) / cfg.beta - 2.0 * cfg.gamma
    log_vol = np.sum(np.log(cfg.beta) + log_softplus(z), axis=1)
    logits = np.maximum(np.log(cfg.eps), log_vol)
    cache = {
        "off": off, "visit_alphas": visit_alphas, "visit_argmax": visit_argmax,
        "visit_centers": visit_centers, "weights": weights, "po_arg": po_arg,
        "cu_wins_max": cu <= pc + po, "cl_wins_min": cl >= pc - po, "z": z,
        "unclamped": log_vol > np.log(cfg.eps),
    }
    return logits, cache


def loop_backward(flat, enc: EncodedInstance, cache, dlogits, cfg, grads):
    center, offset_raw = flat["center"], flat["offset_raw"]
    q_code, q_visit = flat["attn_query"], flat["visit_weight_vec"]
    d = center.shape[1]

    dz = (dlogits * cache["unclamped"])[:, None] * dlog_softplus(cache["z"])
    dm_max, dm_min = dz / cfg.beta, -dz / cfg.beta
    cu_wins, cl_wins = cache["cu_wins_max"], cache["cl_wins_min"]
    dcu, dcl = dm_max * cu_wins, dm_min * cl_wins
    dp_up = np.sum(dm_max * ~cu_wins, axis=0)
    dp_lo = np.sum(dm_min * ~cl_wins, axis=0)
    grads["center"] += dcu + dcl
    doff_total = dcu - dcl
    dpc, dpo = dp_up + dp_lo, dp_up - dp_lo

    vc, weights = cache["visit_centers"], cache["weights"]
    dvc = weights[:, None] * dpc[None, :]
    du = softmax_vjp(weights, vc @ dpc)
    grads["visit_weight_vec"] += vc.T @ du
    dvc += du[:, None] * q_visit[None, :]
    dvo = np.zeros_like(vc)
    dvo[cache["po_arg"], np.arange(d)] = dpo

    for t, idx in enumerate(enc.visit_idx):
        sub_c, alpha = center[idx], cache["visit_alphas"][t]
        dsub = alpha[:, None] * dvc[t][None, :]
        ds = softmax_vjp(alpha, sub_c @ dvc[t])
        grads["attn_query"] += sub_c.T @ ds
        dsub += ds[:, None] * q_code[None, :]
        np.add.at(grads["center"], idx, dsub)
        np.add.at(doff_total, (idx[cache["visit_argmax"][t]], np.arange(d)), dvo[t])
    grads["offset_raw"] += doff_total * sigmoid(offset_raw)


def loop_loss_and_grads(flat, encoded, cfg):
    grads = zeros_like_tree(flat)
    scale = 1.0 / len(encoded)
    total = 0.0
    for enc in encoded:
        logits, cache = loop_forward(flat, enc, cfg)
        total += bce_with_logits(logits, enc.target)
        loop_backward(flat, enc, cache, bce_with_logits_grad(logits, enc.target) * scale,
                      cfg, grads)
    return total * scale, grads


def batch_loss_and_grads(flat, encoded, cfg):
    grads = zeros_like_tree(flat)
    batch = pack_instances(encoded)
    logits, cache = box_forward(flat, batch, cfg)
    dlogits = bce_with_logits_grad(logits, batch.targets) / len(encoded)
    box_backward(flat, batch, cache, dlogits, cfg, grads)
    return float(np.mean(bce_with_logits(logits, batch.targets))), grads


def random_instance(rng, c: int, max_visits: int = 4, max_codes: int = 5) -> EncodedInstance:
    visits = tuple(
        rng.choice(c, size=int(rng.integers(1, max_codes + 1)), replace=False)
        for _ in range(int(rng.integers(1, max_visits + 1)))
    )
    target = (rng.random(c) < 0.3).astype(float)
    return EncodedInstance(visit_idx=visits, target=target)


def random_params(rng, c: int, d: int, tie_offsets: bool) -> dict:
    flat = init_box_params([f"C{i}" for i in range(c)], d, rng)
    flat["center"] = rng.normal(0.0, 0.5, size=(c, d))
    flat["attn_query"] = rng.normal(0.0, 1.0, size=d)
    flat["visit_weight_vec"] = rng.normal(0.0, 1.0, size=d)
    if tie_offsets:
        # Few distinct offsets, so many elementwise maxes tie and the
        # gradient must go to the first arg-max row, as argmax routes it.
        flat["offset_raw"] = rng.choice([-0.5, 0.2, 0.2, 0.9], size=(c, d))
    return flat


CASES = [
    # (seed, vocabulary size, d, batch size, tied offsets)
    (0, 12, 4, 7, False),
    (1, 12, 4, 7, True),
    (2, 30, 8, 16, False),
    (3, 30, 8, 16, True),
    (4, 6, 3, 1, True),
]


def assert_close(got: float | np.ndarray, want: float | np.ndarray, key: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(got - want))) / scale
    assert err <= 1e-12, f"{key}: relative error {err:.3g}"


@pytest.mark.parametrize("seed,c,d,n,tied", CASES)
def test_batched_loss_and_gradients_match_the_loop(seed, c, d, n, tied):
    rng = np.random.default_rng(seed)
    flat = random_params(rng, c, d, tied)
    encoded = [random_instance(rng, c) for _ in range(n)]
    # Edge shapes: a 1-visit instance with a 1-code visit, and a long one.
    encoded[0] = EncodedInstance(visit_idx=(np.array([c - 1]),), target=encoded[0].target)
    if n > 1:
        encoded[-1] = random_instance(rng, c, max_visits=6, max_codes=1)
    cfg = VolumeConfig(beta=0.1)

    want_loss, want = loop_loss_and_grads(flat, encoded, cfg)
    got_loss, got = batch_loss_and_grads(flat, encoded, cfg)
    assert_close(got_loss, want_loss, "loss")
    for key in flat:
        assert_close(got[key], want[key], key)


def test_tied_offsets_route_to_the_first_argmax_row():
    # Codes 0 and 1 have equal offsets in every dimension, in one visit.
    rng = np.random.default_rng(7)
    flat = random_params(rng, 4, 3, tie_offsets=False)
    flat["offset_raw"][1] = flat["offset_raw"][0]
    flat["offset_raw"][[2, 3]] = -3.0
    enc = EncodedInstance(visit_idx=(np.array([1, 0, 2]), np.array([3])),
                          target=np.array([1.0, 0.0, 0.0, 1.0]))
    cfg = VolumeConfig()
    _, want = loop_loss_and_grads(flat, [enc], cfg)
    _, got = batch_loss_and_grads(flat, [enc], cfg)
    assert_close(got["offset_raw"], want["offset_raw"], "offset_raw")


def test_clamped_and_tail_logits_match_the_loop():
    # Far-apart boxes drive z below the -30/-33 tails and the volume below eps.
    rng = np.random.default_rng(5)
    flat = random_params(rng, 10, 4, tie_offsets=False)
    flat["center"][5:] += 40.0
    encoded = [random_instance(rng, 5) for _ in range(4)]
    encoded = [EncodedInstance(e.visit_idx, np.resize(e.target, 10)) for e in encoded]
    cfg = VolumeConfig(beta=0.05, eps=1e-30)
    logits, _ = box_forward(flat, pack_instances(encoded), cfg)
    assert np.any(logits == np.log(cfg.eps))
    want_loss, want = loop_loss_and_grads(flat, encoded, cfg)
    got_loss, got = batch_loss_and_grads(flat, encoded, cfg)
    assert_close(got_loss, want_loss, "loss")
    for key in flat:
        assert_close(got[key], want[key], key)


def test_instance_logits_do_not_depend_on_the_batch():
    rng = np.random.default_rng(11)
    c, d = 40, 16
    flat = random_params(rng, c, d, tie_offsets=False)
    encoded = [random_instance(rng, c, max_visits=5, max_codes=8) for _ in range(16)]
    cfg = VolumeConfig()
    together, _ = box_forward(flat, pack_instances(encoded), cfg)
    reversed_, _ = box_forward(flat, pack_instances(encoded[::-1]), cfg)
    for i, enc in enumerate(encoded):
        alone, _ = box_forward(flat, pack_instances([enc]), cfg)
        assert np.array_equal(alone[0], together[i]), i
        assert np.array_equal(alone[0], reversed_[len(encoded) - 1 - i]), i
        want, _ = loop_forward(flat, enc, cfg)
        assert_close(alone[0], want, f"logits[{i}]")


def _instance(visits: list[list[str]]) -> PredictionInstance:
    return PredictionInstance(
        patient_id="p",
        input_visits=tuple(
            Visit(day=i, icd=tuple(f"x{c}" for c in v), ccs=tuple(v))
            for i, v in enumerate(visits)
        ),
        target_overall=frozenset({"C0"}),
    )


def test_boxlm_logits_is_a_batch_of_one():
    vocab = tuple(f"C{i}" for i in range(5))
    params = init_box_params(vocab, 3, np.random.default_rng(2))
    inst = _instance([["C1", "C2"], ["C4"]])
    got = boxlm_logits([inst], vocab, params)[0]
    assert isinstance(got, LogitVector)
    enc = EncodedInstance(visit_idx=(np.array([1, 2]), np.array([4])),
                          target=np.eye(5)[0])
    want, _ = box_forward(params, pack_instances([enc]), VolumeConfig())
    assert np.array_equal(got.scores, want[0])


def test_empty_visit_or_instance_is_rejected():
    empty_visit = EncodedInstance(visit_idx=(np.array([1]), np.array([], dtype=np.intp)),
                                  target=np.zeros(3))
    with pytest.raises(BackendError, match="at least one CCS code"):
        pack_instances([empty_visit])
    with pytest.raises(BackendError, match="at least one input visit"):
        pack_instances([EncodedInstance(visit_idx=(), target=np.zeros(3))])
    with pytest.raises(BackendError, match="at least one input visit"):
        pack_instances([])


def criterion_4_pairs():
    """The 1000 seeded (a, b) box pairs of criterion 4, drawn as it draws them."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        a = BoxEmbed(rng.normal(0, 2, d), rng.normal(0, 1, d))
        b = BoxEmbed(rng.normal(0, 2, d), rng.normal(0, 1, d))
        yield a, b
        # The draws of criterion 4's nested-box check that follows each pair.
        rng.random(d), rng.random(d), rng.uniform(-1, 1, d), rng.normal(0, 2, d)


def test_kernel_volume_matches_the_reference_on_criterion_4_pairs():
    # A one-code instance of box a has a as its patient box, so the kernel
    # scores code b at the clamped log of the pair's intersection volume.
    cfg = VolumeConfig()
    batch = pack_instances([EncodedInstance(visit_idx=(np.array([0]),), target=np.zeros(2))])
    clamped = 0
    for i, (a, b) in enumerate(criterion_4_pairs()):
        d = len(a.center)
        flat = {"center": np.stack([a.center, b.center]),
                "offset_raw": np.stack([a.offset_raw, b.offset_raw]),
                "attn_query": np.zeros(d), "visit_weight_vec": np.zeros(d)}
        logits, _ = box_forward(flat, batch, cfg)
        vol = intersection_volume(a, b, cfg)
        want = max(math.log(cfg.eps), math.log(vol) if vol > 0 else -math.inf)
        clamped += want == math.log(cfg.eps)
        assert abs(logits[0, 1] - want) <= 1e-12 * abs(want), (i, logits[0, 1], want)
    # Both sides of the clamp are checked.
    assert 0 < clamped < 1000
