"""Metamorphic relations of the whole pipeline (Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM Comput. Surv. 2018;
Segura et al., "A Survey on Metamorphic Testing", IEEE TSE 2016): two runs
that must agree by construction, checked against each other rather than
against fixed outputs.

Under `mock_echo` the LLM returns the candidates in prompt order, so a
ranking is the scorer-derived candidate list that every stage and K of a
command takes a prefix of.
"""
from __future__ import annotations

import json

import pytest

from dxrank.cli import EXIT_OK, main
from dxrank.metrics import load_run

DOC = {
    "seed": 0,
    "eval_ks": {"overall": [3], "novel": [3]},
    "synth": {"n_patients": 40, "n_ccs": 40},
    "train": {"epochs": 2, "d": 4},
    "llm": {"backend": "mock_echo"},
}
EVIDENCE_STAGES = ("candidate", "prioritization", "relational")


@pytest.fixture(scope="module", params=["novel", "overall"])
def chain(request, tmp_path_factory):
    """One `sweep-k` and one `ablate` over a trained chain, per task."""
    root = tmp_path_factory.mktemp(request.param)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(dict(DOC, task=request.param)))
    out = root / "runs"
    for command in ("synth", "train", "cooc", "sweep-k", "ablate"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    return out


def _rankings(out, run_file):
    return [(r.patient_id, r.ranked) for r in load_run(out / run_file).records]


def test_k10_ranking_is_the_prefix_of_the_k100_ranking(chain):
    short, long = _rankings(chain, "run_k10.jsonl"), _rankings(chain, "run_k100.jsonl")
    assert [pid for pid, _ in short] == [pid for pid, _ in long]
    assert any(len(ranked) > 10 for _, ranked in long), "K=100 adds no candidate"
    for (pid, ranked_10), (_, ranked_100) in zip(short, long):
        assert ranked_10 == ranked_100[:10], pid


def test_evidence_stages_return_the_same_rankings(chain):
    first, *rest = (_rankings(chain, f"run_{stage}.jsonl") for stage in EVIDENCE_STAGES)
    assert any(ranked for _, ranked in first)
    for stage, rankings in zip(EVIDENCE_STAGES[1:], rest):
        assert rankings == first, stage
