from __future__ import annotations

import numpy as np
import pytest

from dxrank.backends.base import BackendError, LogitVector
from dxrank.ehr import Visit
from dxrank.evidence import (
    UNMAPPED_GROUP,
    CandidateSet,
    CooccurrenceMatrix,
    EvidenceError,
    RelationalEvidence,
    RelationLink,
    build_cooccurrence,
    extract_relations,
    load_cooccurrence,
    prioritize_history,
    propagate_to_icd,
    save_cooccurrence,
    select_candidates,
)
from dxrank.synth import SyntheticConfig, generate_synthetic


def brute_force_counts(dataset) -> dict[tuple[str, str], int]:
    """Quadratic double loop over patient code sets; the oracle for
    build_cooccurrence."""
    counts: dict[tuple[str, str], int] = {}
    for p in dataset.patients:
        codes = sorted(p.all_ccs())
        for i, a in enumerate(codes):
            for b in codes[i:]:
                counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


class TestCooccurrence:
    def test_matches_brute_force_on_random_data(self):
        for seed in range(10):
            cfg = SyntheticConfig(
                n_patients=int(np.random.default_rng(seed).integers(5, 60)),
                n_ccs=15, seed=seed,
            )
            ds, _ = generate_synthetic(cfg)
            got = build_cooccurrence(ds)
            want = brute_force_counts(ds)
            assert got.counts == want
            assert got.n_patients == len(ds)

    def test_symmetric_lookup(self, dataset):
        m = build_cooccurrence(dataset)
        assert m.count("C01", "C02") == m.count("C02", "C01")

    def test_diagonal_counts_patients_with_code(self, dataset):
        m = build_cooccurrence(dataset)
        # C01 appears in pA and pC; C03 in pA and pD.
        assert m.count("C01", "C01") == 2
        assert m.count("C03", "C03") == 2
        assert m.count("C01", "C02") == 1  # only pA
        assert m.count("C02", "C05") == 0

    def test_round_trip(self, dataset, tmp_path):
        m = build_cooccurrence(dataset)
        path = tmp_path / "cooc.csv"
        save_cooccurrence(m, path)
        again = load_cooccurrence(path)
        assert again.counts == m.counts
        assert again.n_patients == m.n_patients
        assert path.read_text().startswith("# n_patients=4\n")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "cooc.csv"
        path.write_text("ccs_i,ccs_j,count\nC01,C01,1\n")
        with pytest.raises(EvidenceError):
            load_cooccurrence(path)

    @pytest.mark.parametrize("body,message", [
        ("ccs_j,ccs_i,count\nC01,C01,1\n", "co-occurrence columns"),
        ("C01,C01,1\n", "co-occurrence columns"),
        ("", "co-occurrence columns"),
        ("ccs_i,ccs_j,count\nC01,C01\n",
         "bad co-occurrence row {'ccs_i': 'C01', 'ccs_j': 'C01', 'count': None}"),
        ("ccs_i,ccs_j,count\nC01,C01,x,y\n",
         "bad co-occurrence row {'ccs_i': 'C01', 'ccs_j': 'C01', 'count': 'x', None: ['y']}"),
    ])
    def test_malformed_file_rejected(self, tmp_path, body, message):
        path = tmp_path / "cooc.csv"
        path.write_text("# n_patients=3\n" + body)
        with pytest.raises(EvidenceError) as info:
            load_cooccurrence(path)
        assert str(info.value).startswith(message)

    def test_blank_lines_and_extra_fields_are_read_as_before(self, tmp_path):
        path = tmp_path / "cooc.csv"
        path.write_text("# n_patients=3\nccs_i,ccs_j,count\nC01,C01,2\n\nC01,C02,1,\n"
                        "C02,C02,1\n")
        m = load_cooccurrence(path)
        assert m.counts == {("C01", "C01"): 2, ("C01", "C02"): 1, ("C02", "C02"): 1}

    @pytest.mark.parametrize("counts,n,message", [
        ({("a", "b"): -1}, 3, "negative count for (a, b)"),
        ({("b", "b"): 2, ("b", "a"): 1}, 3, "count(a,b)=1 exceeds a diagonal entry"),
        ({("a", "a"): 4}, 3, "count(a,a)=4 exceeds n_patients"),
        ({("a", "a"): 1, ("b", "b"): 1, ("a", "b"): 1, ("b", "a"): 0}, 3,
         "asymmetric counts for pair ('a', 'b')"),
        ({}, -1, "negative n_patients"),
    ])
    def test_bad_counts_messages(self, counts, n, message):
        with pytest.raises(EvidenceError) as info:
            CooccurrenceMatrix(counts=counts, n_patients=n)
        assert str(info.value) == message

    def test_off_diagonal_bounded_by_diagonal(self):
        with pytest.raises(EvidenceError):
            CooccurrenceMatrix(
                counts={("a", "a"): 1, ("b", "b"): 5, ("a", "b"): 3},
                n_patients=10,
            )


def _logits(pairs: dict[str, float]) -> LogitVector:
    vocab = tuple(sorted(pairs))
    return LogitVector(vocab=vocab, scores=np.array([pairs[c] for c in vocab]))


class TestSelectCandidates:
    LOGITS = _logits({"C01": 0.5, "C02": 2.0, "C03": 0.5, "C04": -1.0, "C05": 1.0})

    def test_descending_with_code_tie_break(self):
        cands = select_candidates(self.LOGITS, K=4, mode="overall")
        assert cands.codes == ("C02", "C05", "C01", "C03")

    def test_novel_filters_before_the_cut(self):
        cands = select_candidates(
            self.LOGITS, K=3, mode="novel", history_ccs=frozenset({"C02"})
        )
        # C02 holds the top logit but is history; the set stays at K.
        assert cands.codes == ("C05", "C01", "C03")
        assert cands.mode == "novel"

    def test_k_larger_than_pool_returns_all(self):
        cands = select_candidates(self.LOGITS, K=50, mode="overall")
        assert len(cands.codes) == 5

    def test_k_must_be_positive(self):
        with pytest.raises(EvidenceError):
            select_candidates(self.LOGITS, K=0, mode="overall")

    def test_order_invariant_to_monotone_transform(self):
        doubled = _logits(
            {c: 2.0 * s + 3.0 for c, s in self.LOGITS.as_dict().items()}
        )
        a = select_candidates(self.LOGITS, K=5, mode="overall")
        b = select_candidates(doubled, K=5, mode="overall")
        assert a.codes == b.codes

    def test_unknown_code_score_raises(self):
        assert self.LOGITS.score("C05") == 1.0
        with pytest.raises(BackendError, match="not in logit vector"):
            self.LOGITS.score("C09")

    def test_matches_brute_force_order(self):
        rng = np.random.default_rng(0)
        vocab = [f"C{i:03d}" for i in range(60)]
        for _ in range(50):
            # Few distinct values, so ties are common.
            scores = rng.integers(-3, 3, size=len(vocab)) / 2.0
            logits = _logits(dict(zip(vocab, scores)))
            history = frozenset(rng.choice(vocab, size=5, replace=False))
            want = sorted((c for c in vocab if c not in history),
                          key=lambda c: (-scores[vocab.index(c)], c))[:10]
            got = select_candidates(logits, K=10, mode="novel", history_ccs=history)
            assert got.codes == tuple(want)
            assert got.entries == tuple((c, logits.score(c)) for c in want)

    def test_candidate_set_validates_order(self):
        with pytest.raises(EvidenceError):
            CandidateSet(entries=(("C01", 0.0), ("C02", 1.0)), K=5, mode="overall")


class TestPrioritizeHistory:
    def test_descending_logit_with_tie_break(self):
        logits = _logits({"C01": 1.0, "C02": 5.0, "C03": 1.0, "C04": 0.0})
        got = prioritize_history({"C01", "C02", "C03"}, logits)
        assert got == ["C02", "C01", "C03"]

    def test_missing_logit_rejected(self):
        logits = _logits({"C01": 1.0})
        with pytest.raises(EvidenceError, match="C09"):
            prioritize_history({"C09"}, logits)


class TestPropagateToIcd:
    def test_groups_follow_order_and_first_occurrence(self, ontology):
        visits = (
            Visit(day=0, icd=("I01b", "I02a"), ccs=("C01", "C02")),
            Visit(day=5, icd=("I01a", "I01b"), ccs=("C01",)),
        )
        ph = propagate_to_icd(["C02", "C01"], visits, ontology)
        assert [g.ccs for g in ph.groups] == ["C02", "C01"]
        assert ph.groups[0].icds == ("I02a",)
        # I01b seen on day 0 before I01a on day 5.
        assert ph.groups[1].icds == ("I01b", "I01a")

    def test_unlisted_parent_goes_to_unmapped(self, ontology):
        visits = (Visit(day=0, icd=("I01a", "I03a"), ccs=("C01", "C03")),)
        ph = propagate_to_icd(["C01"], visits, ontology)
        assert [g.ccs for g in ph.groups] == ["C01", UNMAPPED_GROUP]
        assert ph.groups[-1].icds == ("I03a",)

    def test_no_unmapped_group_when_everything_is_listed(self, ontology):
        visits = (Visit(day=0, icd=("I01a",), ccs=("C01",)),)
        ph = propagate_to_icd(["C01"], visits, ontology)
        assert [g.ccs for g in ph.groups] == ["C01"]

    def test_every_input_icd_lands_exactly_once(self, ontology, dataset):
        for p in dataset.patients:
            ordered = sorted({c for v in p.visits for c in v.ccs})
            ph = propagate_to_icd(ordered, p.visits, ontology)
            spread = [icd for g in ph.groups for icd in g.icds]
            assert sorted(spread) == sorted({i for v in p.visits for i in v.icd})

    def test_duplicate_order_rejected(self, ontology):
        visits = (Visit(day=0, icd=("I01a",), ccs=("C01",)),)
        with pytest.raises(EvidenceError):
            propagate_to_icd(["C01", "C01"], visits, ontology)


class TestExtractRelations:
    def _matrix(self) -> CooccurrenceMatrix:
        counts = {
            ("C01", "C01"): 6, ("C02", "C02"): 6, ("C03", "C03"): 6,
            ("C04", "C04"): 6, ("C05", "C05"): 6,
            ("C01", "C04"): 3, ("C02", "C04"): 3,
            ("C01", "C05"): 2,
        }
        return CooccurrenceMatrix(counts=counts, n_patients=10)

    def _candidates(self, codes: list[str]) -> CandidateSet:
        entries = tuple((c, float(len(codes) - i)) for i, c in enumerate(codes))
        return CandidateSet(entries=entries, K=len(codes), mode="overall")

    def test_argmax_history_code_wins(self):
        rel = extract_relations({"C01", "C02"}, self._candidates(["C05"]), self._matrix())
        assert rel.links == (RelationLink("C01", "C05", 2),)

    def test_tie_goes_to_ascending_history_id(self):
        # C01 and C02 both co-occur 3 times with C04.
        rel = extract_relations({"C01", "C02"}, self._candidates(["C04"]), self._matrix())
        assert rel.links[0].history_ccs == "C01"
        assert rel.links[0].count == 3

    def test_zero_count_gives_no_link(self):
        rel = extract_relations({"C03"}, self._candidates(["C05"]), self._matrix())
        assert rel.links == ()

    def test_candidates_already_in_history_are_skipped(self):
        rel = extract_relations(
            {"C01", "C04"}, self._candidates(["C04", "C05"]), self._matrix()
        )
        assert [link.candidate_ccs for link in rel.links] == ["C05"]

    def test_links_follow_candidate_order(self):
        rel = extract_relations(
            {"C01"}, self._candidates(["C05", "C04"]), self._matrix()
        )
        assert [link.candidate_ccs for link in rel.links] == ["C05", "C04"]

    def test_duplicate_candidate_links_rejected(self):
        with pytest.raises(EvidenceError):
            RelationalEvidence(
                links=(RelationLink("C01", "C05", 1), RelationLink("C02", "C05", 2))
            )
