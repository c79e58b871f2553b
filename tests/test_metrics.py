from __future__ import annotations

import csv
import hashlib
import json
import random

import pytest

from dxrank.cli import ABLATION_FILE, METRICS_FILE, main
from dxrank.metrics import (
    DEFAULT_KS,
    ComparisonTable,
    EvalError,
    MetricsReport,
    RunArtifact,
    RunRecord,
    compare_ablations,
    evaluate_run,
    load_run,
    metrics_table,
    novel_filter,
    save_comparison,
    save_metrics,
    save_run,
    visit_precision_at_k,
)

from .reference import code_accuracy_at_k, load_metrics


def rec(pid, ranked, target_overall, target_novel, history, error=""):
    return RunRecord(
        patient_id=pid,
        prompt="",
        raw_text="",
        ranked=tuple(ranked),
        candidates=tuple(ranked),
        target_overall=tuple(sorted(target_overall)),
        target_novel=tuple(sorted(target_novel)),
        history_ccs=tuple(sorted(history)),
        matched_count=len(ranked),
        error=error,
    )


# Hand-built 10-instance fixture; expected values were derived with an
# independent fraction-arithmetic evaluator and frozen here.
RECS = [
    ("p01", ["c1", "c2", "c3", "c4"], {"c1", "c2", "c5"}, {"c5"}, {"c1", "c2"}),
    ("p02", ["c5", "c1", "c4", "c2"], {"c5", "c4"}, {"c5", "c4"}, {"c1"}),
    ("p03", ["c3", "c4", "c1", "c5"], {"c3"}, set(), {"c3", "c2"}),
    ("p04", ["c2", "c5", "c3", "c1"], {"c2", "c3"}, {"c3"}, {"c2", "c4"}),
    ("p05", ["c4", "c3", "c2", "c5"], {"c4", "c2", "c3"}, {"c4"}, {"c2", "c3"}),
    ("p06", ["c1", "c5", "c2", "c3"], {"c5", "c1"}, {"c5", "c1"}, {"c4"}),
    ("p07", ["c2", "c4", "c5", "c3"], {"c3", "c4"}, {"c4"}, {"c3", "c1"}),
    ("p08", ["c5", "c3", "c1", "c4"], {"c1", "c4"}, set(), {"c1", "c4", "c5"}),
    ("p09", ["c3", "c1", "c4", "c2"], {"c3", "c1", "c4"}, {"c4", "c1"}, {"c3"}),
    ("p10", ["c4", "c2", "c3", "c5"], {"c2", "c5"}, {"c2", "c5"}, {"c1", "c3"}),
]

# (task, metric, k) -> frozen expected value.
EXPECTED = {
    ("overall", "visit_precision", 1): 0.7,
    ("overall", "visit_precision", 2): 0.7,
    ("overall", "visit_precision", 3): 0.8166666666666667,
    ("overall", "code_accuracy", 1): 0.3181818181818182,
    ("overall", "code_accuracy", 2): 0.5909090909090909,
    ("overall", "code_accuracy", 3): 0.8181818181818182,
    ("novel", "visit_precision", 1): 0.5,
    ("novel", "visit_precision", 2): 0.8125,
    ("novel", "visit_precision", 3): 0.875,
    ("novel", "code_accuracy", 1): 0.3333333333333333,
    ("novel", "code_accuracy", 2): 0.8333333333333334,
    ("novel", "code_accuracy", 3): 0.9166666666666666,
}

KS_123 = {"overall": (1, 2, 3), "novel": (1, 2, 3)}


def fixture_artifact(order=None) -> RunArtifact:
    rows = [RECS[i] for i in order] if order is not None else RECS
    return RunArtifact(
        records=tuple(rec(*row) for row in rows),
        fingerprint="fx",
        seed=0,
        task="overall",
    )


class TestVisitPrecision:
    def test_partial_overlap(self):
        got = visit_precision_at_k(["a", "b", "x", "y", "z"], {"a", "b", "c"}, 5)
        assert got == pytest.approx(2 / 3)

    def test_small_k_uses_k_denominator(self):
        assert visit_precision_at_k(["a", "x"], {"a", "b", "c"}, 1) == 1.0

    def test_perfect(self):
        assert visit_precision_at_k(["a", "b"], {"a", "b"}, 2) == 1.0

    def test_disjoint(self):
        assert visit_precision_at_k(["x", "y"], {"a"}, 2) == 0.0

    def test_k_beyond_ranking_length(self):
        assert visit_precision_at_k(["a"], {"a", "b"}, 10) == 0.5

    def test_empty_target_rejected(self):
        with pytest.raises(EvalError, match="empty target"):
            visit_precision_at_k(["a"], set(), 1)

    def test_bad_k_rejected(self):
        with pytest.raises(EvalError, match="k"):
            visit_precision_at_k(["a"], {"a"}, 0)


class TestCodeAccuracy:
    def test_pooled_two_records(self):
        records = [
            rec("a", ["x", "y"], {"x", "y"}, {"x"}, set()),
            rec("b", ["p", "q", "r"], {"p", "q", "z"}, {"p"}, set()),
        ]
        # Pooled: (2 + 2) / (2 + 3).
        assert code_accuracy_at_k(records, 2, "overall") == pytest.approx(0.8)

    def test_error_records_excluded(self):
        records = [
            rec("a", ["x"], {"x"}, {"x"}, set()),
            rec("b", ["y"], {"z"}, {"z"}, set(), error="boom"),
        ]
        assert code_accuracy_at_k(records, 1, "overall") == 1.0

    def test_novel_excludes_empty_targets(self):
        records = [
            rec("a", ["h", "x"], {"x"}, {"x"}, {"h"}),
            rec("b", ["h"], {"h"}, set(), {"h"}),
        ]
        assert code_accuracy_at_k(records, 1, "novel") == 1.0

    def test_no_eligible_records_rejected(self):
        records = [rec("a", ["h"], {"h"}, set(), {"h"})]
        with pytest.raises(EvalError, match="no eligible"):
            code_accuracy_at_k(records, 1, "novel")

    def test_unknown_task_rejected(self):
        with pytest.raises(EvalError, match="task"):
            code_accuracy_at_k([], 1, "weekly")


class TestNovelFilter:
    def test_drops_history_in_order(self):
        assert novel_filter(["a", "h1", "b", "h2"], {"h1", "h2"}) == ["a", "b"]

    def test_no_history(self):
        assert novel_filter(["a", "b"], set()) == ["a", "b"]

    def test_all_history(self):
        assert novel_filter(["h"], {"h"}) == []


class TestFrozenFixture:
    def test_fixture_consistency(self):
        for pid, rk, ov, nv, hs in RECS:
            assert nv == ov - hs, pid
            assert sorted(set(rk)) == sorted(rk), pid

    def test_all_twelve_values(self):
        report = evaluate_run(fixture_artifact(), ks=KS_123)
        for (task, metric, k), want in EXPECTED.items():
            got = report.get(task, metric, k)
            assert got == pytest.approx(want, abs=1e-9), (task, metric, k)

    def test_counts(self):
        report = evaluate_run(fixture_artifact(), ks=KS_123)
        assert report.n_instances == 10
        assert report.n_failed == 0
        # p03 and p08 have no novel targets.
        assert report.n_novel_excluded == 2

    def test_record_order_irrelevant(self):
        order = list(range(10))
        random.Random(3).shuffle(order)
        base = evaluate_run(fixture_artifact(), ks=KS_123)
        shuffled = evaluate_run(fixture_artifact(order), ks=KS_123)
        assert base.values == shuffled.values

    def test_accuracy_nondecreasing_in_k(self):
        report = evaluate_run(fixture_artifact(), ks=KS_123)
        for task in ("overall", "novel"):
            vals = [report.get(task, "code_accuracy", k) for k in (1, 2, 3)]
            assert vals == sorted(vals)

    def test_default_k_grid(self):
        report = evaluate_run(fixture_artifact())
        assert report.ks == {"overall": (10, 20), "novel": (5, 10)}
        assert DEFAULT_KS == {"overall": (10, 20), "novel": (5, 10)}


class TestEvaluateRun:
    def test_failed_counted_not_scored(self):
        art = RunArtifact(
            records=(
                rec("a", ["x"], {"x"}, {"x"}, set()),
                rec("b", ["x"], {"y"}, {"y"}, set(), error="timeout"),
            ),
            fingerprint="f", seed=0, task="overall",
        )
        report = evaluate_run(art, ks={"overall": (1,), "novel": (1,)})
        assert report.n_failed == 1
        assert report.get("overall", "visit_precision", 1) == 1.0

    def test_none_when_no_eligible_novel(self):
        art = RunArtifact(
            records=(rec("a", ["h"], {"h"}, set(), {"h"}),),
            fingerprint="f", seed=0, task="overall",
        )
        report = evaluate_run(art, ks={"novel": (1,)})
        assert report.get("novel", "visit_precision", 1) is None
        assert report.get("novel", "code_accuracy", 1) is None

    def test_empty_grid_scores_nothing(self):
        report = evaluate_run(fixture_artifact(), {})
        assert report.ks == {} and report.values == {}

    def test_unknown_task_in_grid(self):
        with pytest.raises(EvalError, match="task"):
            evaluate_run(fixture_artifact(), ks={"weekly": (1,)})


class TestRunIO:
    def test_round_trip(self, tmp_path):
        art = fixture_artifact()
        path = tmp_path / "run.jsonl"
        save_run(art, path)
        back = load_run(path)
        assert back.records == art.records
        assert back.fingerprint == "fx"
        assert back.seed == 0
        assert back.task == "overall"

    def test_meta_line_first_and_sorted_records(self, tmp_path):
        order = list(range(10))[::-1]
        path = tmp_path / "run.jsonl"
        save_run(fixture_artifact(order), path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "meta"
        pids = [json.loads(ln)["patient_id"] for ln in lines[1:]]
        assert pids == sorted(pids)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_run(fixture_artifact(), a)
        save_run(fixture_artifact(list(range(10))[::-1]), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        save_run(fixture_artifact(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(EvalError, match="meta"):
            load_run(path)

    def test_bad_json_line_located(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "meta", "task": "overall"}\n{oops\n')
        with pytest.raises(EvalError, match="line 2"):
            load_run(path)

    def test_missing_field_located(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"kind": "meta", "task": "overall"}\n'
            '{"kind": "record", "patient_id": "a", "ranked": ["x"]}\n'
        )
        with pytest.raises(EvalError, match="line 2"):
            load_run(path)

    def test_failed_property(self):
        art = RunArtifact(
            records=(
                rec("a", ["x"], {"x"}, {"x"}, set()),
                rec("b", ["x"], {"x"}, {"x"}, set(), error="e"),
            ),
            fingerprint="f", seed=0, task="novel",
        )
        assert [r.patient_id for r in art.failed] == ["b"]

    def test_unknown_task_rejected(self):
        with pytest.raises(EvalError, match="task"):
            RunArtifact(records=(), fingerprint="f", seed=0, task="weekly")


class TestMetricsIO:
    def test_round_trip(self, tmp_path):
        report = evaluate_run(fixture_artifact(), ks=KS_123)
        path = tmp_path / "metrics.json"
        save_metrics(report, path)
        back = load_metrics(path)
        assert back.values == report.values
        assert back.ks == report.ks
        assert back.n_instances == 10
        assert back.n_novel_excluded == 2

    def test_none_values_survive(self, tmp_path):
        art = RunArtifact(
            records=(rec("a", ["h"], {"h"}, set(), {"h"}),),
            fingerprint="f", seed=0, task="overall",
        )
        report = evaluate_run(art, ks={"novel": (1,)})
        path = tmp_path / "metrics.json"
        save_metrics(report, path)
        assert load_metrics(path).get("novel", "visit_precision", 1) is None

    def test_integer_ks_restored(self, tmp_path):
        report = evaluate_run(fixture_artifact(), ks=KS_123)
        path = tmp_path / "metrics.json"
        save_metrics(report, path)
        back = load_metrics(path)
        assert all(
            isinstance(k, int)
            for per_metric in back.values.values()
            for per_k in per_metric.values()
            for k in per_k
        )

    def test_table_renders_values_and_na(self):
        art = RunArtifact(
            records=(rec("a", ["h"], {"h"}, set(), {"h"}),),
            fingerprint="f", seed=0, task="overall",
        )
        report = evaluate_run(art, ks={"overall": (1,), "novel": (1,)})
        text = metrics_table(report)
        assert "instances=1" in text
        assert "n/a" in text
        assert "1.0000" in text


class TestCompareAblations:
    def make_reports(self):
        base = evaluate_run(fixture_artifact(), ks=KS_123)
        # Second report: same grid, perfect rankings.
        perfect = RunArtifact(
            records=tuple(
                rec(pid, sorted(ov) + [c for c in rk if c not in ov], ov, nv, hs)
                for pid, rk, ov, nv, hs in RECS
            ),
            fingerprint="fx2", seed=0, task="overall",
        )
        return [("base", base), ("full", evaluate_run(perfect, ks=KS_123))]

    def test_columns_and_deltas(self):
        table = compare_ablations(self.make_reports())
        assert "overall.visit_precision@1" in table.columns
        assert table.rows[0]["deltas"] is None
        col = "overall.visit_precision@1"
        want = (
            table.rows[1]["values"][col] - table.rows[0]["values"][col]
        )
        assert table.rows[1]["deltas"][col] == pytest.approx(want)

    def test_k_grid_mismatch_rejected(self):
        base = evaluate_run(fixture_artifact(), ks=KS_123)
        other = evaluate_run(fixture_artifact(), ks={"overall": (1,)})
        with pytest.raises(EvalError, match="k-grid"):
            compare_ablations([("a", base), ("b", other)])

    def test_empty_rejected(self):
        with pytest.raises(EvalError, match="no reports"):
            compare_ablations([])

    def test_csv_round_trip(self, tmp_path):
        table = compare_ablations(self.make_reports())
        path = tmp_path / "ablation.csv"
        save_comparison(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["config"] for r in rows] == ["base", "full"]
        assert rows[0]["delta_overall.visit_precision@1"] == ""
        got = float(rows[1]["overall.visit_precision@1"])
        assert got == pytest.approx(1.0)

    def test_text_rendering(self):
        table = compare_ablations(self.make_reports())
        text = table.text()
        assert text.splitlines()[1].startswith("base")
        assert "(+0." in text or "(-0." in text or "(+1." in text


# A small seed-0 mock chain whose visit-precision means `sum` would round
# differently from Python 3.12 on, and the sha256 of the `metrics.json` and
# `ablation.csv` it writes. Every supported Python adds the same way, so
# these bytes are the same on each: a change to the scores, the order they
# are added in or the files' format shows here first.
PINNED_CHAIN = {
    "seed": 0, "k_candidates": 5, "task": "novel",
    "synth": {"n_patients": 80, "n_ccs": 20},
    "train": {"epochs": 2, "d": 4},
    "llm": {"backend": "mock_evidence"},
    "eval_ks": {"overall": [3, 5], "novel": [3, 5]},
}
PINNED_METRICS = {
    METRICS_FILE: "8b911fceb96630bd48e9d0c1f2df3d79e96ce5c4f71242795e168414fe719256",
    ABLATION_FILE: "047dda44729c5d87d4be10dba27c48fd0b0df903506ded57863fdb9910a5fae5",
}


def test_metric_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PINNED_CHAIN))
    out = tmp_path / "out"
    for command in ("synth", "train", "cooc", "predict", "eval", "ablate"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINNED_METRICS}
    assert got == PINNED_METRICS
