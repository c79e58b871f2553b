from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from dxrank.cli import DATASET_FILE, ONTOLOGY_FILE, main
from dxrank.ehr import save_dataset
from dxrank.synth import (
    ComorbidityRule,
    SyntheticConfig,
    SyntheticConfigError,
    ccs_vocabulary,
    generate_synthetic,
)

from .test_acceptance import ABLATION_DOC

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


class TestConfigValidation:
    def test_defaults_pass(self):
        SyntheticConfig().validate()

    def test_bad_visit_range(self):
        with pytest.raises(SyntheticConfigError):
            SyntheticConfig(visits_range=(5, 2)).validate()

    def test_rule_codes_must_exist(self):
        rule = ComorbidityRule(trigger="CCS-001", onset="CCS-999", q=0.5)
        with pytest.raises(SyntheticConfigError):
            SyntheticConfig(n_ccs=10, rules=(rule,)).validate()

    def test_trigger_equals_onset_rejected(self):
        rule = ComorbidityRule(trigger="CCS-001", onset="CCS-001", q=0.5)
        with pytest.raises(SyntheticConfigError):
            SyntheticConfig(rules=(rule,)).validate()

    def test_codes_per_visit_bounded_by_vocab(self):
        with pytest.raises(SyntheticConfigError):
            SyntheticConfig(n_ccs=3, codes_per_visit_range=(4, 5)).validate()


class TestVocabulary:
    def test_zero_padded_and_sorted(self):
        vocab = ccs_vocabulary(12)
        assert vocab[0] == "CCS-001"
        assert vocab[-1] == "CCS-012"
        assert vocab == sorted(vocab)

    def test_wide_vocab_stays_numeric_in_lex_order(self):
        vocab = ccs_vocabulary(1500)
        assert vocab == sorted(vocab)


class TestGeneration:
    def test_deterministic(self, tmp_path):
        cfg = SyntheticConfig(n_patients=30, seed=11)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_synthetic(cfg)[0], a)
        save_dataset(generate_synthetic(cfg)[0], b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_synthetic(SyntheticConfig(n_patients=30, seed=0))[0], a)
        save_dataset(generate_synthetic(SyntheticConfig(n_patients=30, seed=1))[0], b)
        assert a.read_bytes() != b.read_bytes()

    def test_shapes_and_ranges(self):
        cfg = SyntheticConfig(
            n_patients=40, n_ccs=20, icd_per_ccs=2,
            visits_range=(2, 4), codes_per_visit_range=(1, 3), seed=2,
        )
        ds, onto = generate_synthetic(cfg)
        assert len(ds) == 40
        assert len(onto.ccs_names) == 20
        assert len(onto.icd_to_ccs) == 40
        vocab = set(ccs_vocabulary(20))
        for p in ds.patients:
            assert 2 <= len(p.visits) <= 4
            for v in p.visits:
                assert 1 <= len(v.ccs) <= 3
                assert set(v.ccs) <= vocab
                assert onto.image(v.icd) == v.ccs_set

    def test_days_strictly_increase(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_patients=25, seed=3))
        for p in ds.patients:
            days = [v.day for v in p.visits]
            assert days[0] == 0
            assert all(a < b for a, b in zip(days, days[1:]))

    def test_fully_chronic_patients_keep_their_codes(self):
        cfg = SyntheticConfig(
            n_patients=30, n_ccs=25, chronic_rate=1.0, rules=(), seed=5
        )
        ds, _ = generate_synthetic(cfg)
        for p in ds.patients:
            first = p.visits[0].ccs_set
            assert all(v.ccs_set == first for v in p.visits)


class TestPlantedRules:
    def test_rule_raises_onset_frequency(self):
        # Conditional frequency of the onset appearing in the next visit,
        # measured only where the onset is absent from the current visit so
        # chronic carry-over cannot fire the count.
        q = 0.85
        rule = ComorbidityRule(trigger="CCS-001", onset="CCS-002", q=q)
        cfg = SyntheticConfig(
            n_patients=1500, n_ccs=100, icd_per_ccs=1, chronic_rate=0.5,
            rules=(rule,), visits_range=(3, 6), codes_per_visit_range=(2, 3),
            seed=9,
        )
        ds, _ = generate_synthetic(cfg)
        fired = dict(hit=0, n=0)
        control = dict(hit=0, n=0)
        for p in ds.patients:
            for cur, nxt in zip(p.visits, p.visits[1:]):
                if "CCS-002" in cur.ccs_set:
                    continue
                bucket = fired if "CCS-001" in cur.ccs_set else control
                bucket["n"] += 1
                bucket["hit"] += "CCS-002" in nxt.ccs_set
        assert fired["n"] > 200
        f = fired["hit"] / fired["n"]
        g = control["hit"] / control["n"]
        assert abs(f - q) < 0.1
        assert g < 0.15
        assert f > g + 0.5


# sha256 of what `dxrank synth --seed <seed>` writes for the criterion-5
# config and the paper-like `paper-box` config. These bytes are the
# generator's contract: a change to the draws or to the files' format
# shows here first.
GOLDEN = {
    ("criterion-5", 0): ("5e56e6ebe2b81cb1483cda4ab761481a3fb007c29fcfaa2283f0e07f7711a908",
                         "8bf8f1867762f1bb503ed10a4bc8877a392a635c479505b1917e1b172f1e34a9"),
    ("criterion-5", 1): ("7dac51617fb28a5995b7cc797ab36ab2c4f5fa23cc6d91e39a2b4bdda0742b96",
                         "8bf8f1867762f1bb503ed10a4bc8877a392a635c479505b1917e1b172f1e34a9"),
    ("paper-box", 0): ("6fd6e88a30fb5072b3c78ba079838e527f6351837e0e8221063ff4ee063dc23c",
                       "09a183b05a68e30f07debaa180d9ae012700d10d4631f4a83a97462bbb2950cd"),
    ("paper-box", 1): ("3469e8ee72700e335ae1d0a89e28ff75694fcd8dc7b246d29ae13be989db5269",
                       "09a183b05a68e30f07debaa180d9ae012700d10d4631f4a83a97462bbb2950cd"),
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_synth_bytes_are_pinned(tmp_path, name, seed):
    doc = (ABLATION_DOC if name == "criterion-5"
           else json.loads(WORKLOADS.read_text())[name]["config"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in (DATASET_FILE, ONTOLOGY_FILE))
    assert got == GOLDEN[name, seed]
