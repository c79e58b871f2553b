from __future__ import annotations

import math

import numpy as np
import pytest

from dxrank.backends.base import BackendError, code_index, encode_instance, pack_instances
from dxrank.backends.retain import (
    GruParams,
    RetainParams,
    init_retain_params,
    retain_forward,
    retain_logits,
)
from dxrank.ehr import PredictionInstance, Visit


def _instance(visits: list[list[str]]) -> PredictionInstance:
    history = frozenset(c for v in visits for c in v)
    return PredictionInstance(
        patient_id="p",
        input_visits=tuple(
            Visit(day=i * 3, icd=tuple(f"x{c}" for c in v), ccs=tuple(v))
            for i, v in enumerate(visits)
        ),
        target_overall=history,
        target_novel=frozenset(),
        history_ccs=history,
    )


def _params(vocab: tuple[str, ...], d: int, seed: int) -> RetainParams:
    rng = np.random.default_rng(seed)
    return RetainParams.from_flat(vocab, init_retain_params(vocab, d, rng))


def reference_logits(inst: PredictionInstance, params: RetainParams) -> np.ndarray:
    """Loop-and-math reimplementation kept independent of the array code."""

    def sig(x):
        return 1.0 / (1.0 + math.exp(-x))

    def gru_sequence(cell: GruParams, xs: list[list[float]]) -> list[list[float]]:
        d = len(cell.b_z)
        h = [0.0] * d
        outs = []
        for x in xs:
            z = [sig(sum(cell.w_z[i][j] * x[j] for j in range(d))
                     + sum(cell.u_z[i][j] * h[j] for j in range(d))
                     + cell.b_z[i]) for i in range(d)]
            r = [sig(sum(cell.w_r[i][j] * x[j] for j in range(d))
                     + sum(cell.u_r[i][j] * h[j] for j in range(d))
                     + cell.b_r[i]) for i in range(d)]
            hb = [math.tanh(sum(cell.w_h[i][j] * x[j] for j in range(d))
                            + sum(cell.u_h[i][j] * r[j] * h[j] for j in range(d))
                            + cell.b_h[i]) for i in range(d)]
            h = [(1.0 - z[i]) * h[i] + z[i] * hb[i] for i in range(d)]
            outs.append(h)
        return outs

    d = params.d
    index = {c: i for i, c in enumerate(params.vocab)}
    vs = []
    for visit in inst.input_visits:
        row = [0.0] * d
        for code in visit.ccs:
            for j in range(d):
                row[j] += params.embed[index[code]][j]
        vs.append(row)
    rv = vs[::-1]

    g = gru_sequence(params.rnn_alpha, rv)
    h = gru_sequence(params.rnn_beta, rv)
    es = [sum(g[t][j] * params.w_alpha[j] for j in range(d)) for t in range(len(rv))]
    m = max(es)
    exps = [math.exp(e - m) for e in es]
    alphas = [e / sum(exps) for e in exps]
    gates = [
        [math.tanh(sum(params.W_beta[i][j] * h[t][j] for j in range(d)))
         for i in range(d)]
        for t in range(len(rv))
    ]
    context = [
        sum(alphas[t] * gates[t][j] * rv[t][j] for t in range(len(rv)))
        for j in range(d)
    ]
    return np.array([
        sum(params.W_o[i][j] * context[j] for j in range(d)) + params.b_o[i]
        for i in range(len(params.vocab))
    ])


class TestRetainForward:
    def test_matches_reference_implementation(self):
        vocab = tuple(f"C{i}" for i in range(5))
        params = _params(vocab, 4, seed=3)
        inst = _instance([["C0", "C2"], ["C1"], ["C3", "C4", "C0"]])
        got = retain_logits([inst], params)[0]
        want = reference_logits(inst, params)
        np.testing.assert_allclose(got.scores, want, rtol=1e-10, atol=1e-12)
        assert got.vocab == vocab

    def test_single_visit_gets_full_attention(self):
        vocab = ("C0", "C1", "C2")
        params = _params(vocab, 3, seed=1)
        inst = _instance([["C1", "C2"]])
        encoded = encode_instance(inst, code_index(vocab))
        _, cache = retain_forward(params.flat(), pack_instances([encoded]))
        np.testing.assert_allclose(cache["alpha"], [1.0])

    def test_zero_output_layer_yields_bias(self):
        vocab = ("C0", "C1")
        base = _params(vocab, 2, seed=2)
        flat = base.flat()
        flat["W_o"] = np.zeros_like(flat["W_o"])
        flat["b_o"] = np.array([0.25, -1.5])
        params = RetainParams.from_flat(vocab, flat)
        lv = retain_logits([_instance([["C0"], ["C1"]])], params)[0]
        np.testing.assert_allclose(lv.scores, [0.25, -1.5])

    def test_visit_order_matters(self):
        vocab = tuple(f"C{i}" for i in range(4))
        params = _params(vocab, 4, seed=5)
        fwd = retain_logits([_instance([["C0"], ["C1"], ["C2", "C3"]])], params)[0]
        rev = retain_logits([_instance([["C2", "C3"], ["C1"], ["C0"]])], params)[0]
        assert not np.allclose(fwd.scores, rev.scores)

    def test_unknown_code_rejected(self):
        params = _params(("C0", "C1"), 2, seed=0)
        with pytest.raises(BackendError, match="C9"):
            retain_logits([_instance([["C0", "C9"]])], params)


class TestParamShapes:
    def test_gru_shape_validation(self):
        good = {n: np.zeros((2, 2)) if not n.startswith("b") else np.zeros(2)
                for n in ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r",
                          "w_h", "u_h", "b_h")}
        GruParams(**good)
        bad = dict(good)
        bad["u_h"] = np.zeros((2, 3))
        with pytest.raises(BackendError, match="u_h"):
            GruParams(**bad)

    def test_flat_round_trip(self):
        vocab = ("C0", "C1", "C2")
        params = _params(vocab, 3, seed=7)
        again = RetainParams.from_flat(vocab, params.flat())
        for key, val in params.flat().items():
            np.testing.assert_array_equal(again.flat()[key], val)

    def test_embed_shape_checked(self):
        params = _params(("C0", "C1"), 2, seed=0)
        flat = params.flat()
        flat["embed"] = np.zeros((3, 2))
        with pytest.raises(BackendError, match="embed"):
            RetainParams.from_flat(("C0", "C1"), flat)
