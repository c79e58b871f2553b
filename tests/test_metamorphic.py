"""Metamorphic relations of the whole pipeline (Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM Comput. Surv. 2018;
Segura et al., "A Survey on Metamorphic Testing", IEEE TSE 2016): two runs
that must agree by construction, checked against each other rather than
against fixed outputs.

Under `mock_echo` the LLM returns the candidates in prompt order, so a
ranking is the scorer-derived candidate list that every stage and K of a
command takes a prefix of.

The input-order relations draw their permutations with Hypothesis
(MacIver et al., JOSS 2019), derandomized like the property tests.
"""
from __future__ import annotations

import json
import shutil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dxrank.cli import COOC_FILE, DATASET_FILE, EXIT_OK, ONTOLOGY_FILE, RANKINGS_FILE, main
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


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A chain through `ablate` on the dataset as `synth` wrote it."""
    root = tmp_path_factory.mktemp("reference")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(DOC))
    out = root / "runs"
    for command in ("synth", "train", "cooc", "ablate"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    return cfg_path, out


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_visit_and_count_row_order_change_no_output_byte(reference, tmp_path_factory, rng):
    """Visits are ordered by day when a patient is built, and counts are
    keyed by their code pair, so permuting the visits within each line of
    `dataset.jsonl` before `train`, and the data rows of `cooc.csv` before
    `ablate`, changes no output byte. The exceptions are `dataset.jsonl`
    and the two lines that hash it: `rankings.jsonl`'s meta line and
    `cooc.csv`'s split line."""
    cfg_path, ref = reference
    out = tmp_path_factory.getbasetemp() / "permuted"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    shutil.copy(ref / ONTOLOGY_FILE, out)
    patients = [json.loads(line) for line in _lines(ref / DATASET_FILE)]
    for patient in patients:
        rng.shuffle(patient["visits"])
    text = "".join(json.dumps(patient, sort_keys=True) + "\n" for patient in patients)
    assume(text != (ref / DATASET_FILE).read_text(encoding="utf-8"))
    (out / DATASET_FILE).write_text(text, encoding="utf-8")

    def run(command):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK

    run("train")
    run("cooc")
    assert _lines(out / RANKINGS_FILE)[1:] == _lines(ref / RANKINGS_FILE)[1:]
    count, split, columns, *rows = _lines(out / COOC_FILE)
    ref_count, ref_split, *ref_rest = _lines(ref / COOC_FILE)
    assert [count, columns, *rows] == [ref_count, *ref_rest]
    rng.shuffle(rows)
    (out / COOC_FILE).write_text("\n".join([count, split, columns, *rows]) + "\n",
                                 encoding="utf-8")
    run("ablate")
    hashed = {DATASET_FILE, RANKINGS_FILE, COOC_FILE}
    written = sorted(path.name for path in out.iterdir() if path.name not in hashed)
    assert "ablation.csv" in written and "model.json" in written
    for name in written:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
