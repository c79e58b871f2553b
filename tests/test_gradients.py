from __future__ import annotations

import math

import numpy as np
import pytest

from dxrank.backends import grad_check, gradients, infer_logits
from dxrank.backends.boxes import VolumeConfig, init_box_params
from dxrank.backends.numerics import (
    bce_with_logits,
    bce_with_logits_grad,
    sigmoid,
    softplus,
    softplus_inv,
)
from dxrank.backends.retain import init_retain_params
from dxrank.ehr import PredictionInstance, Visit

from .conftest import softmax_vjp
from .reference import bce_loss, dlog_softplus, log_softplus, softmax


def _instance(visits: list[list[str]], target: set[str]) -> PredictionInstance:
    return PredictionInstance(
        patient_id="p",
        input_visits=tuple(
            Visit(day=i * 4, icd=tuple(f"x{c}" for c in v), ccs=tuple(v))
            for i, v in enumerate(visits)
        ),
        target_overall=frozenset(target),
    )


VOCAB = tuple(f"C{i}" for i in range(6))
BATCH = [
    _instance([["C0", "C2"], ["C1"]], {"C3", "C1"}),
    _instance([["C4"], ["C5", "C0"], ["C2"]], {"C0"}),
    _instance([["C3", "C5"]], {"C4", "C2"}),
]


class TestNumerics:
    def test_bce_hand_values(self):
        # Single logit 0 against label 1: -log(sigmoid(0)) = log 2.
        z = np.array([0.0])
        y = np.array([1.0])
        np.testing.assert_allclose(bce_with_logits(z, y), math.log(2.0))
        # Mean over entries: logits [0, 0] labels [1, 0] -> still log 2.
        z2 = np.array([0.0, 0.0])
        y2 = np.array([1.0, 0.0])
        np.testing.assert_allclose(bce_with_logits(z2, y2), math.log(2.0))

    def test_bce_grad_is_sigmoid_minus_label_over_n(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 3, size=8)
        y = (rng.random(8) < 0.5).astype(float)
        want = (1.0 / (1.0 + np.exp(-z)) - y) / z.size
        np.testing.assert_allclose(bce_with_logits_grad(z, y), want, rtol=1e-12)

    def test_bce_stable_at_extreme_logits(self):
        z = np.array([800.0, -800.0])
        y = np.array([0.0, 1.0])
        val = bce_with_logits(z, y)
        assert np.isfinite(val) and val > 100

    def test_sigmoid_bitwise_equals_two_exp_form(self):
        """One exp(-|x|) for both branches gives the same bits as taking
        exp(-max(x, 0)) and exp(min(x, 0)) apart, so trained models keep
        their bytes."""
        rng = np.random.default_rng(6)
        x = np.concatenate([
            rng.normal(0.0, scale, size=20000) for scale in (1.0, 10.0, 100.0, 1000.0)
        ] + [np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 745.0, -745.0,
                       1e-300, -1e-300])])
        pos = 1.0 / (1.0 + np.exp(-np.maximum(x, 0.0)))
        ex = np.exp(np.minimum(x, 0.0))
        want = np.where(x >= 0, pos, ex / (1.0 + ex))
        got = sigmoid(x)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(sigmoid(np.array([-800.0, 0.0, 800.0])), [0.0, 0.5, 1.0])

    def test_softplus_inverse(self):
        x = np.array([1e-6, 0.5, 3.0, 40.0])
        np.testing.assert_allclose(softplus(softplus_inv(x)), x, rtol=1e-9)

    def test_log_softplus_tails(self):
        # Deep negative tail: log(softplus(x)) ~ x.
        np.testing.assert_allclose(log_softplus(np.array([-60.0])), [-60.0])
        np.testing.assert_allclose(dlog_softplus(np.array([-60.0])), [1.0])
        # Positive side agrees with the direct computation.
        np.testing.assert_allclose(
            log_softplus(np.array([2.0])), [math.log(math.log1p(math.exp(2.0)))]
        )

    def test_softmax_vjp_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, size=5)
        dy = rng.normal(0, 1, size=5)
        got = softmax_vjp(softmax(x), dy)
        h = 1e-6
        want = np.empty(5)
        for i in range(5):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            want[i] = (softmax(xp) @ dy - softmax(xm) @ dy) / (2 * h)
        np.testing.assert_allclose(got, want, atol=1e-8)


def _batch_loss_public(kind: str, tensors: dict, volume: VolumeConfig) -> float:
    vals = [
        bce_loss(VOCAB, infer_logits(kind, VOCAB, tensors, [inst], volume)[0],
                 sorted(inst.target_overall))
        for inst in BATCH
    ]
    return sum(vals) / len(vals)


def _fd_entries(kind: str, flat: dict, volume: VolumeConfig,
                n_probes: int, seed: int) -> None:
    """Central finite differences on a random sample of parameter entries,
    implemented here independently of the package's own checker."""
    analytic = gradients(kind, VOCAB, flat, BATCH, volume)
    rng = np.random.default_rng(seed)
    h = 1e-5
    keys = sorted(flat)
    for _ in range(n_probes):
        key = keys[int(rng.integers(len(keys)))]
        arr = flat[key]
        ij = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[ij]
        arr[ij] = orig + h
        up = _batch_loss_public(kind, flat, volume)
        arr[ij] = orig - h
        dn = _batch_loss_public(kind, flat, volume)
        arr[ij] = orig
        fd = (up - dn) / (2 * h)
        an = analytic[key][ij]
        denom = max(abs(fd), abs(an), 1e-6)
        assert abs(fd - an) / denom < 1e-4, f"{key}{ij}: fd={fd} analytic={an}"


class TestAnalyticGradients:
    def test_box_backward_matches_fd_probes(self):
        rng = np.random.default_rng(10)
        flat = init_box_params(VOCAB, 3, rng)
        _fd_entries("box", flat, VolumeConfig(), 25, seed=0)

    def test_retain_backward_matches_fd_probes(self):
        rng = np.random.default_rng(11)
        flat = init_retain_params(VOCAB, 3, rng)
        _fd_entries("retain", flat, VolumeConfig(), 25, seed=1)

    def test_grad_check_utility_box(self):
        rng = np.random.default_rng(1)
        params = init_box_params(VOCAB, 3, rng)
        report = grad_check("box", VOCAB, params, BATCH)
        assert report.max_rel_error < 1e-3
        assert report.n_checked > 0

    def test_grad_check_utility_retain(self):
        rng = np.random.default_rng(1)
        params = init_retain_params(VOCAB, 3, rng)
        report = grad_check("retain", VOCAB, params, BATCH)
        assert report.max_rel_error < 1e-3

    def test_single_code_patient_box_ties_are_consistent(self):
        # A one-code visit makes the patient box coincide with that code's
        # box; the shared-parameter max ties must still differentiate.
        rng = np.random.default_rng(3)
        params = init_box_params(VOCAB, 2, rng)
        batch = [_instance([["C0"]], {"C1"})]
        report = grad_check("box", VOCAB, params, batch)
        assert report.max_rel_error < 1e-3

    def test_gradients_rejects_empty_batch(self):
        rng = np.random.default_rng(0)
        params = init_box_params(VOCAB, 2, rng)
        with pytest.raises(Exception):
            gradients("box", VOCAB, params, [])
