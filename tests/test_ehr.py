from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxrank.ehr import (
    Dataset,
    DatasetError,
    Ontology,
    OntologyError,
    PatientRecord,
    PredictionInstance,
    SplitError,
    Visit,
    build_instances,
    load_dataset,
    load_ontology,
    save_dataset,
    save_ontology,
    split_patients,
)
from dxrank.synth import SyntheticConfig, generate_synthetic

from .conftest import make_patient
from .reference import numpy_split


class TestVisit:
    def test_codes_sorted_and_deduped(self):
        v = Visit(day=0, icd=("I02a", "I01a", "I02a"), ccs=("C02", "C01", "C01"))
        assert v.icd == ("I01a", "I02a")
        assert v.ccs == ("C01", "C02")
        assert v.ccs_set == frozenset({"C01", "C02"})

    def test_empty_icd_rejected(self):
        with pytest.raises(DatasetError):
            Visit(day=0, icd=(), ccs=())

    def test_negative_day_rejected(self):
        with pytest.raises(DatasetError):
            Visit(day=-1, icd=("I01a",), ccs=("C01",))


class TestOntology:
    def test_image(self, ontology):
        assert ontology.image({"I01a", "I02b"}) == frozenset({"C01", "C02"})

    def test_inverse_map(self, ontology):
        assert ontology.ccs_to_icd["C01"] == ("I01a", "I01b")
        assert ontology.ccs_to_icd["C03"] == ("I03a",)

    def test_inverse_map_is_not_an_argument(self, ontology):
        with pytest.raises(TypeError, match="ccs_to_icd"):
            Ontology(icd_to_ccs=ontology.icd_to_ccs, icd_names=ontology.icd_names,
                     ccs_names=ontology.ccs_names, ccs_to_icd={})

    def test_ccs_codes_sorted(self, ontology):
        assert ontology.ccs_codes == ("C01", "C02", "C03", "C04", "C05")

    def test_unknown_icd_raises(self, ontology):
        with pytest.raises(OntologyError):
            ontology.ccs_of("I99x")

    def test_names_fall_back_to_code(self, ontology):
        assert ontology.ccs_name("C01") == "Hypertension"
        assert ontology.ccs_name("C99") == "C99"


class TestPatientRecord:
    def test_visits_sorted_by_day(self):
        p = make_patient("p", [(9, ["I03a"]), (0, ["I01a"])])
        assert [v.day for v in p.visits] == [0, 9]

    def test_requires_a_visit(self):
        with pytest.raises(DatasetError):
            PatientRecord(patient_id="p", visits=())

    def test_all_ccs_union(self):
        p = make_patient("p", [(0, ["I01a"]), (5, ["I02a", "I03a"])])
        assert p.all_ccs() == frozenset({"C01", "C02", "C03"})


class TestDatasetIO:
    def test_round_trip(self, dataset, ontology, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path, ontology)
        assert loaded.patients == dataset.patients

    def test_save_is_deterministic(self, dataset, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(dataset, a)
        save_dataset(dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_icd_rejected(self, ontology, tmp_path):
        path = tmp_path / "d.jsonl"
        line = {"patient_id": "p", "visits": [{"day": 0, "icd": ["I99x"]}]}
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(DatasetError, match="I99x"):
            load_dataset(path, ontology)

    def test_stored_ccs_must_match_image(self, ontology, tmp_path):
        path = tmp_path / "d.jsonl"
        line = {
            "patient_id": "p",
            "visits": [{"day": 0, "icd": ["I01a"], "ccs": ["C02"]}],
        }
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(DatasetError):
            load_dataset(path, ontology)

    def test_visit_without_day_rejected(self, ontology, tmp_path):
        path = tmp_path / "d.jsonl"
        line = {"patient_id": "p", "visits": [{"icd": ["I01a"]}]}
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(DatasetError, match="line 1: .* without a day"):
            load_dataset(path, ontology)

    def test_parse_error_names_the_line(self, ontology, tmp_path):
        path = tmp_path / "d.jsonl"
        good = {"patient_id": "p", "visits": [{"day": 0, "icd": ["I01a"]}]}
        path.write_text(json.dumps(good) + "\nnot json\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path, ontology)

    def test_duplicate_patient_ids_rejected(self, dataset):
        with pytest.raises(DatasetError):
            Dataset(patients=(dataset.patients[0], dataset.patients[0]))


class TestOntologyIO:
    def test_round_trip(self, ontology, tmp_path):
        path = tmp_path / "o.csv"
        save_ontology(ontology, path)
        loaded = load_ontology(path)
        assert loaded.icd_to_ccs == ontology.icd_to_ccs
        assert loaded.icd_names == ontology.icd_names
        assert loaded.ccs_names == ontology.ccs_names

    @pytest.mark.parametrize("row,message", [
        ("I01a,Essential hypertension,C02,Diabetes", "line 3: ICD 'I01a' mapped to both"),
        ("I01b,Other,C01,Renamed", "line 3: CCS 'C01' renamed"),
        ("I01a,Renamed,C01,Hypertension", "line 3: ICD 'I01a' renamed"),
    ])
    def test_conflicting_rows_rejected(self, tmp_path, row, message):
        path = tmp_path / "o.csv"
        path.write_text("icd_id,icd_name,ccs_id,ccs_name\n"
                        f"I01a,Essential hypertension,C01,Hypertension\n{row}\n")
        with pytest.raises(OntologyError) as info:
            load_ontology(path)
        assert str(info.value).startswith(message)

    def test_identical_repeated_row_is_legal(self, tmp_path):
        path = tmp_path / "o.csv"
        row = "I01a,Essential hypertension,C01,Hypertension\n"
        path.write_text("icd_id,icd_name,ccs_id,ccs_name\n" + row + row)
        assert load_ontology(path).icd_names == {"I01a": "Essential hypertension"}


class TestSplitPatients:
    def _many(self, n: int) -> Dataset:
        return Dataset(
            patients=tuple(
                make_patient(f"p{i:03d}", [(0, ["I01a"]), (5, ["I02a"])])
                for i in range(n)
            )
        )

    def test_largest_remainder_sizes(self):
        train, val, test = split_patients(self._many(10))
        assert (len(train), len(val), len(test)) == (7, 1, 2)

    def test_parts_cover_and_are_disjoint(self):
        ds = self._many(23)
        parts = split_patients(ds, seed=3)
        ids = [p.patient_id for part in parts for p in part.patients]
        assert sorted(ids) == sorted(p.patient_id for p in ds.patients)
        assert len(set(ids)) == len(ids)

    def test_deterministic_per_seed(self):
        ds = self._many(30)
        a = split_patients(ds, seed=5)
        b = split_patients(ds, seed=5)
        assert all(x.patients == y.patients for x, y in zip(a, b))

    def test_seed_changes_membership(self):
        ds = self._many(30)
        a, _, _ = split_patients(ds, seed=0)
        b, _, _ = split_patients(ds, seed=1)
        assert {p.patient_id for p in a.patients} != {p.patient_id for p in b.patients}

    def test_bad_ratios_rejected(self):
        with pytest.raises(SplitError):
            split_patients(self._many(5), ratios=(1.0, -0.5, 0.5))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(3, 400), weights=st.tuples(*[st.integers(0, 20)] * 3).filter(any),
           seed=st.integers(0, 2**70) | st.integers(0, 50))
    def test_split_equals_the_numpy_drawn_split(self, n, weights, seed):
        """`dxrank.rng` draws the permutation numpy's `default_rng` drew."""
        ratios = tuple(w / sum(weights) for w in weights)
        ds = self._many(n)
        assert split_patients(ds, ratios, seed) == numpy_split(ds, ratios, seed)


class TestPredictionInstance:
    def test_history_and_novel_target_are_derived(self):
        visits = (Visit(day=0, icd=("I01a", "I02a"), ccs=("C01", "C02")),
                  Visit(day=3, icd=("I02a", "I03a"), ccs=("C02", "C03")))
        inst = PredictionInstance(patient_id="p", input_visits=visits,
                                  target_overall=frozenset({"C03", "C04", "C05"}))
        assert inst.history_ccs == frozenset({"C01", "C02", "C03"})
        assert inst.target_novel == frozenset({"C04", "C05"})

    @pytest.mark.parametrize("name", ["history_ccs", "target_novel"])
    def test_derived_fields_are_not_arguments(self, name):
        visit = Visit(day=0, icd=("I01a",), ccs=("C01",))
        with pytest.raises(TypeError, match=name):
            PredictionInstance(patient_id="p", input_visits=(visit,),
                               target_overall=frozenset({"C02"}), **{name: frozenset()})


class TestBuildInstances:
    def test_one_instance_per_eligible_patient(self, dataset):
        instances = build_instances(dataset)
        # pD has a single visit and is skipped.
        assert [i.patient_id for i in instances] == ["pA", "pB", "pC"]

    def test_final_visit_labels(self, dataset):
        inst = build_instances(dataset)[0]
        assert inst.patient_id == "pA"
        assert inst.history_ccs == frozenset({"C01", "C02"})
        assert inst.target_overall == frozenset({"C03"})
        assert inst.target_novel == frozenset({"C03"})
        assert inst.days_to_target == 5

    def test_novel_empty_when_target_seen(self, dataset):
        inst = [i for i in build_instances(dataset) if i.patient_id == "pB"][0]
        assert inst.target_overall == frozenset({"C02"})
        assert inst.target_novel == frozenset()

    def test_all_prefixes_counts_transitions(self, dataset):
        instances = build_instances(dataset, all_prefixes=True)
        # pA has 2 transitions, pB and pC 1 each.
        assert len(instances) == 4

    def test_novel_identity_on_synthetic_data(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_patients=50, seed=4))
        for inst in build_instances(ds, all_prefixes=True):
            assert inst.target_novel == inst.target_overall - inst.history_ccs
            history = frozenset().union(*(v.ccs_set for v in inst.input_visits))
            assert inst.history_ccs == history
