"""Property test of the run artifact format (Hypothesis: MacIver et al.,
JOSS 2019): any artifact reads back as written, records sorted by patient."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dxrank.ehr import TASKS
from dxrank.metrics import RunArtifact, RunRecord, load_run, save_run

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# Any code point, lone surrogates included.
chars = st.characters(exclude_categories=())
texts = st.text(chars, max_size=30)
codes = st.lists(st.text(chars, max_size=8), max_size=5).map(tuple)
# Beyond 64 bits in both directions.
big_ints = st.integers(-(2**70), 2**70)

records = st.builds(
    RunRecord,
    patient_id=texts, prompt=texts, raw_text=texts,
    ranked=codes, candidates=codes, target_overall=codes, target_novel=codes,
    history_ccs=codes, matched_count=big_ints, error=texts,
)
artifacts = st.builds(
    RunArtifact,
    records=st.lists(records, max_size=5).map(tuple),
    fingerprint=texts, seed=big_ints, task=st.sampled_from(TASKS),
)


@PROPERTY
@given(artifact=artifacts)
def test_save_load_round_trip(tmp_path_factory, artifact):
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    save_run(artifact, path)
    by_patient = tuple(sorted(artifact.records, key=lambda r: r.patient_id))
    assert load_run(path) == RunArtifact(
        records=by_patient, fingerprint=artifact.fingerprint, seed=artifact.seed,
        task=artifact.task)
