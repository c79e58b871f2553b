from __future__ import annotations

import math

import numpy as np
import pytest

from dxrank.backends.base import BackendError
from dxrank.backends.boxes import GAMMA, VolumeConfig, boxlm_logits, init_box_params
from dxrank.backends.numerics import softplus
from dxrank.ehr import PredictionInstance, Visit

from .reference import BoxEmbed, code_boxes, intersection_volume, patient_box, score, softmax, \
    visit_box


def box1d(lo: float, hi: float) -> BoxEmbed:
    return BoxEmbed.with_width(
        center=np.array([(lo + hi) / 2]), offset=np.array([(hi - lo) / 2])
    )


class TestIntersectionVolume:
    # Frozen oracle values: beta * log1p(exp(overlap/beta - 2*gamma)) at
    # beta=0.1, computed with plain math independent of the module.
    def test_half_overlap_oracle(self):
        vol = intersection_volume(box1d(0.0, 1.0), box1d(0.5, 1.5))
        np.testing.assert_allclose(vol, 0.3866717687969605, rtol=1e-12)

    def test_unit_overlap_oracle(self):
        # Identical unit boxes: per-dimension overlap 1.0.
        vol = intersection_volume(box1d(0.0, 1.0), box1d(0.0, 1.0))
        np.testing.assert_allclose(vol, 0.884571267834822, rtol=1e-12)
        assert abs(vol - 0.88458) < 1e-4

    def test_disjoint_boxes_stay_positive(self):
        vol = intersection_volume(box1d(0.0, 1.0), box1d(1.3, 2.3))
        np.testing.assert_allclose(vol, 0.0015572825370038176, rtol=1e-12)
        assert vol > 0

    def test_multi_dim_is_product(self):
        a = BoxEmbed.with_width(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        b = BoxEmbed.with_width(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        per_dim = intersection_volume(box1d(0.0, 1.0), box1d(0.5, 1.5))
        np.testing.assert_allclose(
            intersection_volume(a, b), per_dim**2, rtol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        a = BoxEmbed.with_width(np.array([0.0]), np.array([1.0]))
        b = BoxEmbed.with_width(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(BackendError):
            intersection_volume(a, b)

    def test_positivity_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            a = BoxEmbed(rng.normal(0, 2, d), rng.normal(0, 1, d))
            b = BoxEmbed(rng.normal(0, 2, d), rng.normal(0, 1, d))
            assert intersection_volume(a, b) > 0

    def test_monotone_in_overlap(self):
        base = box1d(0.0, 1.0)
        shifts = np.linspace(2.0, 0.0, 40)
        vols = [
            intersection_volume(base, box1d(s, s + 1.0)) for s in shifts
        ]
        assert all(v2 >= v1 for v1, v2 in zip(vols, vols[1:]))

    def test_nested_box_identity(self):
        inner = box1d(0.25, 0.75)
        outer = box1d(0.0, 1.0)
        np.testing.assert_allclose(
            intersection_volume(inner, outer),
            intersection_volume(inner, inner),
            rtol=1e-12,
        )


TWO_CODES = ("C01", "C02")


def two_code_params() -> dict:
    return dict(
        center=np.array([[0.0, 1.0], [2.0, -1.0]]),
        offset_raw=np.log(np.expm1(np.array([[0.2, 0.4], [0.5, 0.1]]))),
        attn_query=np.array([1.0, -0.5]),
        visit_weight_vec=np.array([0.3, 0.3]),
    )


class TestAggregation:
    def test_visit_box_oracle(self):
        # Hand-computed: scores c_i . q are -0.5 and 2.5, so
        # alpha = softmax([-0.5, 2.5]); offsets take the elementwise max.
        params = two_code_params()
        vb = visit_box(list(code_boxes(TWO_CODES, params).values()), params)
        np.testing.assert_allclose(
            vb.center, [1.9051482536448667, -0.9051482536448666], rtol=1e-12
        )
        np.testing.assert_allclose(vb.offset, [0.5, 0.4], rtol=1e-12)

    def test_code_order_irrelevant(self):
        params = two_code_params()
        boxes = list(code_boxes(TWO_CODES, params).values())
        a = visit_box(boxes, params)
        b = visit_box(boxes[::-1], params)
        np.testing.assert_allclose(a.center, b.center, atol=1e-12)
        np.testing.assert_allclose(a.offset, b.offset, atol=1e-12)

    def test_single_box_is_identity(self):
        params = two_code_params()
        box = code_boxes(TWO_CODES, params)["C01"]
        vb = visit_box([box], params)
        np.testing.assert_allclose(vb.center, box.center, atol=1e-12)
        np.testing.assert_allclose(vb.offset, box.offset, atol=1e-12)

    def test_patient_box_uses_visit_weights(self):
        params = two_code_params()
        boxes = list(code_boxes(TWO_CODES, params).values())
        pb = patient_box(boxes, params)
        centers = np.stack([b.center for b in boxes])
        alpha = softmax(centers @ params["visit_weight_vec"])
        np.testing.assert_allclose(pb.center, alpha @ centers, rtol=1e-12)

    def test_empty_visit_rejected(self):
        with pytest.raises(BackendError):
            visit_box([], two_code_params())


def _instance(visits: list[list[str]]) -> PredictionInstance:
    codes = sorted({c for v in visits for c in v})
    return PredictionInstance(
        patient_id="p",
        input_visits=tuple(
            Visit(day=i * 5, icd=tuple(f"x{c}" for c in v), ccs=tuple(v))
            for i, v in enumerate(visits)
        ),
        target_overall=frozenset({codes[0]}),
    )


def dense_reference_logits(
    inst: PredictionInstance, vocab: tuple[str, ...], params: dict, cfg: VolumeConfig
) -> np.ndarray:
    """Independent forward pass written against the public box helpers."""
    boxes = code_boxes(vocab, params)
    vboxes = [
        visit_box([boxes[c] for c in v.ccs], params) for v in inst.input_visits
    ]
    pbox = patient_box(vboxes, params)
    out = np.empty(len(vocab))
    for i, c in enumerate(vocab):
        vol = intersection_volume(pbox, boxes[c], cfg)
        out[i] = math.log(max(cfg.eps, vol))
    return out


class TestBoxLogits:
    def test_matches_reference_forward(self):
        rng = np.random.default_rng(7)
        vocab = tuple(f"C{i:02d}" for i in range(6))
        params = init_box_params(vocab, 3, rng)
        inst = _instance([["C00", "C02"], ["C01", "C04", "C05"], ["C03"]])
        cfg = VolumeConfig()
        got = boxlm_logits([inst], vocab, params, cfg)[0]
        want = dense_reference_logits(inst, vocab, params, cfg)
        np.testing.assert_allclose(got.scores, want, rtol=1e-10)
        assert got.vocab == vocab

    def test_far_apart_boxes_clamp_to_log_eps(self):
        vocab = ("C00", "C01")
        params = dict(
            center=np.array([[0.0], [500.0]]),
            offset_raw=np.array([[0.1], [0.1]]),
            attn_query=np.array([0.0]),
            visit_weight_vec=np.array([0.0]),
        )
        inst = _instance([["C00"]])
        lv = boxlm_logits([inst], vocab, params)[0]
        assert score(lv, "C01") == pytest.approx(math.log(1e-30))
        assert score(lv, "C00") > score(lv, "C01")

    def test_unknown_history_code_rejected(self):
        params = two_code_params()
        inst = _instance([["C01", "C09"]])
        with pytest.raises(BackendError, match="C09"):
            boxlm_logits([inst], TWO_CODES, params)

    def test_gamma_constant(self):
        assert GAMMA == pytest.approx(0.5772156649, abs=1e-10)
        # VolumeConfig carries it as the fixed default.
        assert VolumeConfig().gamma == GAMMA

    def test_beta_shrinks_smoothing(self):
        # At tiny beta the soft volume of identical unit boxes approaches
        # the hard overlap of 1.0.
        vol = intersection_volume(
            box1d(0.0, 1.0), box1d(0.0, 1.0), VolumeConfig(beta=1e-4)
        )
        np.testing.assert_allclose(vol, 1.0, atol=1e-3)

    def test_offset_positive_via_softplus(self):
        box = BoxEmbed(center=np.array([0.0]), offset_raw=np.array([-50.0]))
        assert box.offset[0] > 0
        np.testing.assert_allclose(box.offset[0], softplus(-50.0))
