"""Property test of run scoring (Hypothesis: MacIver et al., JOSS 2019): on
any artifact, `evaluate_run` equals a reference that loops over the records
once per task, metric and k, and the metrics table's rows (tasks sorted,
then metrics, then the grid's ks) are the ablation table's columns."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dxrank.ehr import TASKS
from dxrank.metrics import RunArtifact, RunRecord, compare_ablations, evaluate_run, \
    metrics_table

from .reference import score_by_loops

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

codes = st.sampled_from([f"c{i}" for i in range(8)])
# Rankings may be shorter than k and may hold history codes.
rankings = st.lists(codes, max_size=6).map(tuple)
code_sets = st.frozensets(codes, max_size=4)


@st.composite
def records(draw) -> RunRecord:
    target = draw(st.frozensets(codes, min_size=1, max_size=4))
    history = draw(code_sets)
    return RunRecord(
        patient_id=draw(st.text(max_size=3)), ranked=draw(rankings),
        target_overall=tuple(sorted(target)),
        # Empty when the history covers the target.
        target_novel=tuple(sorted(target - history)),
        history_ccs=tuple(sorted(history)),
        error=draw(st.sampled_from(["", "", "timeout"])))


artifacts = st.builds(RunArtifact, records=st.lists(records(), max_size=6).map(tuple),
                      task=st.sampled_from(TASKS))
grids = st.dictionaries(st.sampled_from(TASKS),
                        st.lists(st.integers(1, 9), unique=True, max_size=3).map(tuple))


@PROPERTY
@given(artifact=artifacts, other=artifacts, ks=grids)
def test_scores_equal_the_loop_reference(artifact, other, ks):
    report = evaluate_run(artifact, ks)
    assert report == score_by_loops(artifact, ks)
    table = compare_ablations([("a", report), ("b", evaluate_run(other, ks))])
    rows = [line.split() for line in metrics_table(report).splitlines()[2:]]
    assert [(task, metric, int(k)) for task, metric, k, _ in rows] == [
        (task, metric, k) for task in sorted(ks)
        for metric in ("visit_precision", "code_accuracy") for k in ks[task]]
    assert list(table.columns) == [f"{task}.{metric}@{k}" for task, metric, k, _ in rows]
    assert [v for *_, v in rows] == [
        "n/a" if v is None else f"{v:.4f}" for v in table.rows[0]["values"].values()]
