from __future__ import annotations

import math

import numpy as np
import pytest

from dxrank.backends.base import BackendError, code_index, encode_instance, pack_instances
from dxrank.backends.retain import init_retain_params, retain_forward, retain_logits
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
    )


def _params(vocab: tuple[str, ...], d: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return init_retain_params(vocab, d, rng)


def reference_logits(inst: PredictionInstance, vocab: tuple[str, ...],
                     params: dict) -> np.ndarray:
    """Loop-and-math reimplementation kept independent of the array code."""

    def sig(x):
        return 1.0 / (1.0 + math.exp(-x))

    def gru_sequence(cell: str, xs: list[list[float]]) -> list[list[float]]:
        w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = (
            params[f"{cell}/{name}"] for name in
            ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"))
        d = len(b_z)
        h = [0.0] * d
        outs = []
        for x in xs:
            z = [sig(sum(w_z[i][j] * x[j] for j in range(d))
                     + sum(u_z[i][j] * h[j] for j in range(d))
                     + b_z[i]) for i in range(d)]
            r = [sig(sum(w_r[i][j] * x[j] for j in range(d))
                     + sum(u_r[i][j] * h[j] for j in range(d))
                     + b_r[i]) for i in range(d)]
            hb = [math.tanh(sum(w_h[i][j] * x[j] for j in range(d))
                            + sum(u_h[i][j] * r[j] * h[j] for j in range(d))
                            + b_h[i]) for i in range(d)]
            h = [(1.0 - z[i]) * h[i] + z[i] * hb[i] for i in range(d)]
            outs.append(h)
        return outs

    d = len(params["w_alpha"])
    index = {c: i for i, c in enumerate(vocab)}
    vs = []
    for visit in inst.input_visits:
        row = [0.0] * d
        for code in visit.ccs:
            for j in range(d):
                row[j] += params["embed"][index[code]][j]
        vs.append(row)
    rv = vs[::-1]

    g = gru_sequence("rnn_alpha", rv)
    h = gru_sequence("rnn_beta", rv)
    es = [sum(g[t][j] * params["w_alpha"][j] for j in range(d)) for t in range(len(rv))]
    m = max(es)
    exps = [math.exp(e - m) for e in es]
    alphas = [e / sum(exps) for e in exps]
    gates = [
        [math.tanh(sum(params["W_beta"][i][j] * h[t][j] for j in range(d)))
         for i in range(d)]
        for t in range(len(rv))
    ]
    context = [
        sum(alphas[t] * gates[t][j] * rv[t][j] for t in range(len(rv)))
        for j in range(d)
    ]
    return np.array([
        sum(params["W_o"][i][j] * context[j] for j in range(d)) + params["b_o"][i]
        for i in range(len(vocab))
    ])


class TestRetainForward:
    def test_matches_reference_implementation(self):
        vocab = tuple(f"C{i}" for i in range(5))
        params = _params(vocab, 4, seed=3)
        inst = _instance([["C0", "C2"], ["C1"], ["C3", "C4", "C0"]])
        got = retain_logits([inst], vocab, params)[0]
        want = reference_logits(inst, vocab, params)
        np.testing.assert_allclose(got.scores, want, rtol=1e-10, atol=1e-12)
        assert got.vocab == vocab

    def test_single_visit_gets_full_attention(self):
        vocab = ("C0", "C1", "C2")
        params = _params(vocab, 3, seed=1)
        inst = _instance([["C1", "C2"]])
        encoded = encode_instance(inst, code_index(vocab))
        _, cache = retain_forward(params, pack_instances([encoded]))
        np.testing.assert_allclose(cache["alpha"], [1.0])

    def test_zero_output_layer_yields_bias(self):
        vocab = ("C0", "C1")
        params = _params(vocab, 2, seed=2)
        params["W_o"] = np.zeros_like(params["W_o"])
        params["b_o"] = np.array([0.25, -1.5])
        lv = retain_logits([_instance([["C0"], ["C1"]])], vocab, params)[0]
        np.testing.assert_allclose(lv.scores, [0.25, -1.5])

    def test_visit_order_matters(self):
        vocab = tuple(f"C{i}" for i in range(4))
        params = _params(vocab, 4, seed=5)
        fwd = retain_logits([_instance([["C0"], ["C1"], ["C2", "C3"]])], vocab, params)[0]
        rev = retain_logits([_instance([["C2", "C3"], ["C1"], ["C0"]])], vocab, params)[0]
        assert not np.allclose(fwd.scores, rev.scores)

    def test_unknown_code_rejected(self):
        vocab = ("C0", "C1")
        params = _params(vocab, 2, seed=0)
        with pytest.raises(BackendError, match="C9"):
            retain_logits([_instance([["C0", "C9"]])], vocab, params)

