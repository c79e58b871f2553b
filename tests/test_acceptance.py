"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from dxrank.backends import grad_check
from dxrank.backends.boxes import init_box_params
from dxrank.backends.retain import init_retain_params
from dxrank.backends import load_model
from dxrank.cli import DEFAULT_K, SWEEP_KS, main
from dxrank.ehr import (
    PredictionInstance,
    Visit,
    build_instances,
    load_dataset,
    load_ontology,
)
from dxrank.evidence import build_cooccurrence, select_candidates
from dxrank.metrics import (
    evaluate_run,
    load_run,
    novel_filter,
    visit_precision_at_k,
)
from dxrank.synth import SyntheticConfig, generate_synthetic
from tests.conftest import dense_counts
from tests.reference import BoxEmbed, intersection_volume, load_metrics, ranked
from tests.test_metrics import EXPECTED, KS_123, fixture_artifact


class verdict:
    """Prints `criterion N: PASS` (or FAIL) when the block exits."""

    def __init__(self, n: int):
        self.n = n

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        state = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.n}: {state}")
        return False


def _cli(command: str, cfg_path, out_dir, *extra: str) -> None:
    rc = main([command, "--config", str(cfg_path), "--out", str(out_dir),
               *extra])
    assert rc == 0, f"{command} exited {rc}"


def _chain(tmp_path, doc: dict, name: str, *, seed: int | None = None):
    """synth -> train -> cooc -> predict -> eval into tmp_path/name."""
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / name
    extra = ("--seed", str(seed)) if seed is not None else ()
    for command in ("synth", "train", "cooc", "predict", "eval"):
        _cli(command, cfg_path, out, *extra)
    return out


def _instance(visits: list[list[str]], target: set[str],
              pid: str = "p") -> PredictionInstance:
    return PredictionInstance(
        patient_id=pid,
        input_visits=tuple(
            Visit(day=i * 4, icd=tuple(f"x{c}" for c in v), ccs=tuple(v))
            for i, v in enumerate(visits)
        ),
        target_overall=frozenset(target),
    )


def test_criterion_1_metric_fixtures():
    # Hand-evaluated values on the 10-instance artifact, exact to 1e-9.
    with verdict(1):
        t0 = time.perf_counter()
        report = evaluate_run(fixture_artifact(), ks=KS_123)
        for (task, metric, k), want in EXPECTED.items():
            got = report.get(task, metric, k)
            assert got == pytest.approx(want, abs=1e-9), (task, metric, k)
        assert time.perf_counter() - t0 < 1.0


def _random_batch(rng: np.random.Generator,
                  vocab: tuple[str, ...]) -> list[PredictionInstance]:
    batch = []
    for j in range(3):
        n_visits = int(rng.integers(1, 4))
        visits = [
            [vocab[i] for i in rng.choice(len(vocab),
                                          size=int(rng.integers(1, 4)),
                                          replace=False)]
            for _ in range(n_visits)
        ]
        target = {vocab[i] for i in rng.choice(len(vocab),
                                               size=int(rng.integers(1, 4)),
                                               replace=False)}
        batch.append(_instance(visits, target, pid=f"p{j}"))
    return batch


def _separated_box_params(vocab: tuple[str, ...], d: int,
                          rng: np.random.Generator) -> dict:
    # The elementwise max over box offsets is not differentiable at ties
    # between different codes, so central differences stop measuring the
    # gradient there; separated per-code levels keep every evaluation
    # point smooth while the jitter, centers, and query stay random.
    flat = init_box_params(vocab, d, rng)
    flat["offset_raw"] = flat["offset_raw"] \
        + 0.15 * np.arange(1, len(vocab) + 1)[:, None]
    return flat


def test_criterion_2_gradient_correctness():
    # Both backends, d=4, C=10, 20 seeds each, analytic vs central FD.
    with verdict(2):
        t0 = time.perf_counter()
        vocab = tuple(f"C{i:02d}" for i in range(10))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            batch = _random_batch(np.random.default_rng(1000 + seed), vocab)
            box = _separated_box_params(vocab, 4, rng)
            report = grad_check("box", vocab, box, batch)
            assert report.max_rel_error < 1e-3, ("box", seed, report)
            retain = init_retain_params(vocab, 4, rng)
            report = grad_check("retain", vocab, retain, batch)
            assert report.max_rel_error < 1e-3, ("retain", seed, report)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_cooccurrence_oracle():
    # Exact equality with quadratic per-patient pair counting.
    with verdict(3):
        t0 = time.perf_counter()
        for seed in range(50):
            cfg = SyntheticConfig(
                n_patients=5 + (seed * 7) % 96,
                n_ccs=4 + (seed * 3) % 17,
                seed=seed,
            )
            ds, ontology = generate_synthetic(cfg)
            got = build_cooccurrence(ds, ontology.ccs_codes)
            want: dict[tuple[str, str], int] = {}
            for p in ds.patients:
                codes = sorted(p.all_ccs())
                for i, a in enumerate(codes):
                    for b in codes[i:]:
                        want[(a, b)] = want.get((a, b), 0) + 1
            assert np.array_equal(got.counts, dense_counts(want, ontology.ccs_codes))
            assert got.n_patients == len(ds)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_box_volume_properties():
    # Positivity, overlap monotonicity, nested-box identity; 1000 pairs.
    with verdict(4):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(1, 5))
            a = BoxEmbed(rng.normal(0, 2, d), rng.normal(0, 1, d))
            b = BoxEmbed(rng.normal(0, 2, d), rng.normal(0, 1, d))
            vol = intersection_volume(a, b)
            assert vol > 0
            # Halving the center gap never shrinks the soft volume.
            mid = BoxEmbed(a.center + 0.5 * (b.center - a.center),
                           b.offset_raw)
            assert intersection_volume(a, mid) >= vol * (1 - 1e-12)
            # A box strictly inside another intersects as itself.
            w_out = 0.3 + 1.7 * rng.random(d)
            w_in = w_out * (0.1 + 0.8 * rng.random(d))
            shift = rng.uniform(-1, 1, d) * (w_out - w_in) * 0.95
            outer = BoxEmbed.with_width(rng.normal(0, 2, d), w_out)
            inner = BoxEmbed.with_width(outer.center + shift, w_in)
            np.testing.assert_allclose(
                intersection_volume(inner, outer),
                intersection_volume(inner, inner),
                rtol=1e-12,
            )


ABLATION_DOC = {
    "seed": 0,
    "task": "novel",
    "k_candidates": 40,
    "eval_ks": {"overall": [10], "novel": [10]},
    "synth": {
        "n_patients": 500,
        "n_ccs": 400,
        "chronic_rate": 0.9,
        "visits_range": [2, 3],
        "codes_per_visit_range": [2, 2],
        "rules": [
            {"trigger": f"CCS-{1 + 12 * i:03d}",
             "onset": f"CCS-{201 + 12 * i:03d}",
             "q": 0.8}
            for i in range(16)
        ],
    },
    "train": {"epochs": 1, "d": 16, "learning_rate": 0.003},
    "llm": {"backend": "mock_evidence", "max_in_flight": 1},
}

STAGES = ("base", "candidate", "prioritization", "relational")


def test_criterion_5_ablation_trend(tmp_path):
    # Planted-rule synthetic data, evidence-aware mock, 5 seeds: each
    # prompt stage must lift mean novel P@10 by more than 0.01.
    with verdict(5):
        t0 = time.perf_counter()
        cfg_path = tmp_path / "ablate.json"
        cfg_path.write_text(json.dumps(ABLATION_DOC))
        sums = dict.fromkeys(STAGES, 0.0)
        for seed in range(5):
            out = tmp_path / f"seed{seed}"
            extra = ("--seed", str(seed))
            for command in ("synth", "train", "cooc", "ablate"):
                _cli(command, cfg_path, out, *extra)
            for stage in STAGES:
                got = load_metrics(out / f"metrics_{stage}.json").get(
                    "novel", "visit_precision", 10)
                assert got is not None
                sums[stage] += got
        means = [sums[s] / 5 for s in STAGES]
        for prev, cur in zip(means, means[1:]):
            assert cur - prev > 0.01, means
        assert time.perf_counter() - t0 < 300.0


SMALL_DOC = {
    "seed": 0,
    "task": "novel",
    "k_candidates": 6,
    "eval_ks": {"overall": [3], "novel": [3]},
    "synth": {"n_patients": 40, "n_ccs": 12},
    "train": {"epochs": 2, "d": 4},
    "llm": {"backend": "mock_evidence", "max_in_flight": 1},
}


def test_criterion_6_candidate_size_sweep(tmp_path):
    with verdict(6):
        assert DEFAULT_K == 50
        assert SWEEP_KS == (10, 25, 50, 100)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(SMALL_DOC))
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            _cli(command, cfg_path, out)
        _cli("sweep-k", cfg_path, out)
        lines = (out / "sweep_k.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        labels = [ln.split(",")[0] for ln in lines[1:]]
        assert labels == ["K=10", "K=25", "K=50 (default)", "K=100"]
        for k in SWEEP_KS:
            assert (out / f"run_k{k}.jsonl").exists()
            assert (out / f"metrics_k{k}.json").exists()


ARTIFACTS = ("dataset.jsonl", "ontology.csv", "model.json", "losses.csv",
             "cooc.csv", "run.jsonl", "metrics.json")


def test_criterion_7_determinism(tmp_path):
    # Identical config and seed: every artifact byte-identical.
    with verdict(7):
        first = _chain(tmp_path, SMALL_DOC, "first")
        second = _chain(tmp_path, SMALL_DOC, "second")
        for name in ARTIFACTS:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_criterion_8_novel_label_correctness():
    # target_novel and novel_filter vs a raw-visit re-derivation.
    with verdict(8):
        ds, _ = generate_synthetic(SyntheticConfig(n_patients=1000, n_ccs=30,
                                                   seed=3))
        patients = {p.patient_id: p for p in ds.patients}
        instances = build_instances(ds)
        assert len(instances) == 1000
        vocab = sorted({c for p in ds.patients for c in p.all_ccs()})
        rng = np.random.default_rng(4)
        for inst in instances:
            visits = patients[inst.patient_id].visits
            history = {c for v in visits[:-1] for c in v.ccs}
            assert inst.target_novel == set(visits[-1].ccs) - history
            assert inst.history_ccs == history
            ranked = [vocab[i] for i in rng.choice(len(vocab), size=15,
                                                   replace=False)]
            assert novel_filter(ranked, inst.history_ccs) == [
                c for c in ranked if c not in history]


ECHO_DOC = {
    "seed": 0,
    "task": "overall",
    "k_candidates": 10,
    "eval_ks": {"overall": [10], "novel": [5]},
    "synth": {"n_patients": 80, "n_ccs": 30},
    "train": {"epochs": 2, "d": 8},
    "llm": {"backend": "mock_echo", "max_in_flight": 1},
}


def test_criterion_9_echo_round_trip(tmp_path):
    # MockEcho must hand back the candidate order for every instance, so
    # the pipeline metric equals the backend's own top-K precision.
    with verdict(9):
        out = _chain(tmp_path, ECHO_DOC, "echo")
        run = load_run(out / "run.jsonl")
        assert run.records and not run.failed
        for rec in run.records:
            assert rec.ranked == rec.candidates
        ontology = load_ontology(out / "ontology.csv")
        ds = load_dataset(out / "dataset.jsonl", ontology)
        model = load_model(out / "model.json", ontology)
        instances = {i.patient_id: i for i in build_instances(ds)}
        vals = []
        for rec in run.records:
            inst = instances[rec.patient_id]
            cands = select_candidates(ranked(model.vocab, model.logits([inst])[0]), K=10,
                                      mode="overall")
            assert cands.codes == rec.candidates, rec.patient_id
            vals.append(visit_precision_at_k(list(cands.codes),
                                             set(inst.target_overall), 10))
        want = sum(vals) / len(vals)
        got = load_metrics(out / "metrics.json").get(
            "overall", "visit_precision", 10)
        assert got == pytest.approx(want, abs=1e-12)
