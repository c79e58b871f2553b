from __future__ import annotations

import numpy as np
import pytest

from dxrank.ehr import Dataset, Ontology, PatientRecord, Visit

# Tiny hand-built ontology with display names, reused across test modules.
ICD_TO_CCS = {
    "I01a": "C01", "I01b": "C01",
    "I02a": "C02", "I02b": "C02",
    "I03a": "C03",
    "I04a": "C04",
    "I05a": "C05",
}
ICD_NAMES = {
    "I01a": "Essential Hypertension",
    "I01b": "Hypertensive Heart Disease",
    "I02a": "Type 2 Diabetes",
    "I02b": "Diabetes with Complications",
    "I03a": "Iron Deficiency Anemia",
    "I04a": "Atrial Fibrillation",
    "I05a": "Heart Block",
}
CCS_NAMES = {
    "C01": "Hypertension",
    "C02": "Diabetes",
    "C03": "Anemia",
    "C04": "Cardiac Dysrhythmias",
    "C05": "Conduction Disorders",
}


@pytest.fixture
def ontology() -> Ontology:
    return Ontology(
        icd_to_ccs=ICD_TO_CCS, icd_names=ICD_NAMES, ccs_names=CCS_NAMES
    )


def make_patient(pid: str, visits: list[tuple[int, list[str]]]) -> PatientRecord:
    """Build a patient from (day, icd list) pairs, deriving ccs from the
    shared map."""
    return PatientRecord(
        patient_id=pid,
        visits=tuple(
            Visit(day=day, icd=tuple(icds),
                  ccs=tuple({ICD_TO_CCS[i] for i in icds}))
            for day, icds in visits
        ),
    )


def dense_counts(pairs: dict[tuple[str, str], int],
                 vocab: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """Pair counts keyed by code, in either order, as the symmetric row
    tuples a CooccurrenceMatrix over `vocab` holds; absent pairs are 0."""
    index = {c: i for i, c in enumerate(vocab)}
    counts = [[0] * len(vocab) for _ in vocab]
    for (a, b), v in pairs.items():
        counts[index[a]][index[b]] = counts[index[b]][index[a]] = v
    return tuple(map(tuple, counts))


def softmax_vjp(y: np.ndarray, dy: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backprop through softmax given its output y and upstream grad dy; the
    per-instance oracles' counterpart of numerics.segment_softmax_vjp."""
    dot = np.sum(y * dy, axis=axis, keepdims=True)
    return y * (dy - dot)


@pytest.fixture
def dataset(ontology: Ontology) -> Dataset:
    patients = (
        make_patient("pA", [(0, ["I01a"]), (7, ["I01b", "I02a"]), (12, ["I03a"])]),
        make_patient("pB", [(0, ["I02a"]), (3, ["I02b"])]),
        make_patient("pC", [(0, ["I04a", "I01a"]), (30, ["I05a"])]),
        make_patient("pD", [(0, ["I03a"])]),
    )
    return Dataset(patients=patients)
