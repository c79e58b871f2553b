from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxrank import InputError
from dxrank.backends.base import BackendError
from dxrank.ehr import TASKS, Visit, build_instances
from dxrank.evidence import (
    UNMAPPED_GROUP,
    CandidateSet,
    CooccurrenceMatrix,
    EvidenceError,
    RelationalEvidence,
    RelationLink,
    build_cooccurrence,
    eligible_candidates,
    extract_relations,
    load_cooccurrence,
    prioritize_history,
    propagate_to_icd,
    save_cooccurrence,
    select_candidates,
)
from dxrank.synth import SyntheticConfig, generate_synthetic

from .conftest import CCS_NAMES, dense_counts
from .reference import ranked, score

VOCAB = tuple(sorted(CCS_NAMES))
# The record of a split that `cooc` writes and the loader is handed back.
SPLIT = {"seed": 0, "split_ratios": [0.7, 0.1, 0.2], "sha256": {"dataset.jsonl": "0" * 64}}
SPLIT_LINE = f"# split={json.dumps(SPLIT, sort_keys=True)}\n"


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


def count(matrix: CooccurrenceMatrix, i: str, j: str) -> int:
    return matrix.counts[matrix.vocab.index(i)][matrix.vocab.index(j)]


class TestCooccurrence:
    def test_matches_brute_force_on_random_data(self):
        for seed in range(10):
            cfg = SyntheticConfig(
                n_patients=int(np.random.default_rng(seed).integers(5, 60)),
                n_ccs=15, seed=seed,
            )
            ds, ontology = generate_synthetic(cfg)
            got = build_cooccurrence(ds, ontology.ccs_codes)
            want = brute_force_counts(ds)
            assert np.array_equal(got.counts, dense_counts(want, ontology.ccs_codes))
            assert got.n_patients == len(ds)

    def test_symmetric_lookup(self, dataset):
        m = build_cooccurrence(dataset, VOCAB)
        assert count(m, "C01", "C02") == count(m, "C02", "C01")
        assert np.array_equal(m.counts, np.transpose(m.counts))

    def test_diagonal_counts_patients_with_code(self, dataset):
        m = build_cooccurrence(dataset, VOCAB)
        # C01 appears in pA and pC; C03 in pA and pD.
        assert count(m, "C01", "C01") == 2
        assert count(m, "C03", "C03") == 2
        assert count(m, "C01", "C02") == 1  # only pA
        assert count(m, "C02", "C05") == 0

    def test_round_trip(self, dataset, tmp_path):
        m = build_cooccurrence(dataset, VOCAB)
        path = tmp_path / "cooc.csv"
        save_cooccurrence(m, path, SPLIT)
        again = load_cooccurrence(path, VOCAB, SPLIT)
        assert np.array_equal(again.counts, m.counts)
        assert again.n_patients == m.n_patients
        assert path.read_text().startswith("# n_patients=4\n")

    def test_file_holds_nonzero_upper_triangle_in_row_major_order(self, dataset, tmp_path):
        path = tmp_path / "cooc.csv"
        save_cooccurrence(build_cooccurrence(dataset, VOCAB), path, SPLIT)
        assert path.read_text().splitlines() == [
            "# n_patients=4", SPLIT_LINE.strip(), "ccs_i,ccs_j,count",
            "C01,C01,2", "C01,C02,1", "C01,C03,1", "C01,C04,1", "C01,C05,1",
            "C02,C02,2", "C02,C03,1", "C03,C03,2", "C04,C04,1", "C04,C05,1",
            "C05,C05,1",
        ]

    @pytest.mark.parametrize("row,message", [
        ("C01,C09,1", "CCS code 'C09' is not in the vocabulary"),
        ("C08,C09,1", "CCS code 'C08' is not in the vocabulary"),
        ("C02,C01,1", "co-occurrence row (C02, C01) has ccs_i > ccs_j"),
        ("C01,C01,99999999999999999999999",
         "count(C01,C01)=99999999999999999999999 exceeds n_patients"),
        ("C01,C02,-1", "negative count for (C01, C02)"),
        ("C01,C01,1", "co-occurrence pair (C01, C01) listed twice"),
        ("C01,C01,2", "co-occurrence pair (C01, C01) listed twice"),
    ])
    def test_rows_off_the_vocabulary_order_or_range_rejected(self, tmp_path, row, message):
        path = tmp_path / "cooc.csv"
        path.write_text(f"# n_patients=3\n{SPLIT_LINE}ccs_i,ccs_j,count\nC01,C01,2\n{row}\n")
        with pytest.raises(EvidenceError) as info:
            load_cooccurrence(path, VOCAB, SPLIT)
        assert str(info.value) == message

    @pytest.mark.parametrize("n_patients,rows,want", [
        (3, "C01,C01,2\nC01,C02,1\nC02,C02,1\n",
         {("C01", "C01"): 2, ("C01", "C02"): 1, ("C02", "C02"): 1}),
        # Counts are Python ints: no int64 holds 2**64, which loads exactly.
        (2**70, f"C01,C01,{2**64}\nC01,C02,{2**63}\nC02,C02,{2**63}\n",
         {("C01", "C01"): 2**64, ("C01", "C02"): 2**63, ("C02", "C02"): 2**63}),
    ])
    def test_rows_in_range_load_exactly(self, tmp_path, n_patients, rows, want):
        path = tmp_path / "cooc.csv"
        path.write_text(f"# n_patients={n_patients}\n{SPLIT_LINE}ccs_i,ccs_j,count\n{rows}")
        m = load_cooccurrence(path, VOCAB, SPLIT)
        assert m.counts == dense_counts(want, VOCAB) and m.n_patients == n_patients
        assert {type(v) for row in m.counts for v in row} == {int}

    def test_save_returns_the_number_of_rows_written(self, tmp_path):
        path = tmp_path / "cooc.csv"
        for seed in range(5):
            ds, ontology = generate_synthetic(SyntheticConfig(n_patients=20, n_ccs=40,
                                                              seed=seed))
            written = save_cooccurrence(build_cooccurrence(ds, ontology.ccs_codes), path,
                                        SPLIT)
            # Below the 820 pairs of 40 codes: the file holds only nonzero ones.
            assert 0 < written == len(path.read_text().splitlines()) - 3 < 820

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "cooc.csv"
        path.write_text("ccs_i,ccs_j,count\nC01,C01,1\n")
        with pytest.raises(EvidenceError):
            load_cooccurrence(path, VOCAB, SPLIT)

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
        path.write_text(f"# n_patients=3\n{SPLIT_LINE}" + body)
        with pytest.raises(EvidenceError) as info:
            load_cooccurrence(path, VOCAB, SPLIT)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("line, message", [
        ("", "no record of the inputs it was built from (run `dxrank cooc` again)"),
        ("ccs_i,ccs_j,count\n", "no record of the inputs it was built from"),
        ("# split=[1]\n", "no record of the inputs it was built from"),
        (SPLIT_LINE.replace('"seed": 0', '"seed": 7'),
         "written for seed 7, not 0 (run `dxrank cooc` again)"),
        (SPLIT_LINE.replace("0.1, 0.2", "0.2, 0.1"),
         "written for split_ratios [0.7, 0.2, 0.1], not [0.7, 0.1, 0.2]"),
        (SPLIT_LINE.replace("0" * 64, "1" * 64),
         "dataset.jsonl changed since `dxrank cooc` ran (run `dxrank cooc` again)"),
    ], ids=["none", "columns", "not-an-object", "seed", "split-ratios", "dataset-sha256"])
    def test_counts_of_another_split_rejected(self, tmp_path, line, message):
        path = tmp_path / "cooc.csv"
        path.write_text(f"# n_patients=3\n{line}ccs_i,ccs_j,count\nC01,C01,2\n")
        with pytest.raises(InputError) as info:
            load_cooccurrence(path, VOCAB, SPLIT)
        assert str(info.value).startswith(message), info.value

    def test_blank_lines_and_extra_fields_are_read_as_before(self, tmp_path):
        path = tmp_path / "cooc.csv"
        path.write_text(f"# n_patients=3\n{SPLIT_LINE}ccs_i,ccs_j,count\nC01,C01,2\n\n"
                        "C01,C02,1,\nC02,C02,1\n")
        m = load_cooccurrence(path, VOCAB, SPLIT)
        want = {("C01", "C01"): 2, ("C01", "C02"): 1, ("C02", "C02"): 1}
        assert np.array_equal(m.counts, dense_counts(want, VOCAB))

    @pytest.mark.parametrize("counts,n,message", [
        ({("a", "b"): -1}, 3, "negative count for (a, b)"),
        ({("b", "b"): 2, ("b", "a"): 1}, 3, "count(a,b)=1 exceeds a diagonal entry"),
        ({("a", "a"): 4}, 3, "count(a,a)=4 exceeds n_patients"),
        # Of several bad entries, the first in row-major order is reported.
        ({("b", "b"): 5, ("a", "a"): -1}, 3, "negative count for (a, a)"),
        ({}, -1, "negative n_patients"),
    ])
    def test_bad_counts_messages(self, counts, n, message):
        with pytest.raises(EvidenceError) as info:
            CooccurrenceMatrix(vocab=("a", "b"), counts=dense_counts(counts, ("a", "b")),
                               n_patients=n)
        assert str(info.value) == message

    def test_off_diagonal_bounded_by_diagonal(self):
        with pytest.raises(EvidenceError):
            CooccurrenceMatrix(
                vocab=("a", "b"),
                counts=dense_counts({("a", "a"): 1, ("b", "b"): 5, ("a", "b"): 3}, ("a", "b")),
                n_patients=10,
            )


def _ranking(pairs: dict[str, float]) -> tuple[str, ...]:
    """The codes of `pairs` in the order of their scores."""
    return ranked(list(pairs), list(pairs.values()))


class TestSelectCandidates:
    SCORES = {"C01": 0.5, "C02": 2.0, "C03": 0.5, "C04": -1.0, "C05": 1.0}
    VOCAB = tuple(SCORES)
    RANKING = _ranking(SCORES)

    def test_descending_with_code_tie_break(self):
        cands = select_candidates(self.RANKING, K=4, mode="overall")
        assert cands.codes == ("C02", "C05", "C01", "C03")

    def test_novel_filters_before_the_cut(self):
        cands = select_candidates(
            self.RANKING, K=3, mode="novel", history_ccs=frozenset({"C02"})
        )
        # C02 holds the top logit but is history; the set stays at K.
        assert cands.codes == ("C05", "C01", "C03")
        assert cands.mode == "novel"

    def test_k_larger_than_pool_returns_all(self):
        cands = select_candidates(self.RANKING, K=50, mode="overall")
        assert len(cands.codes) == 5

    def test_k_must_be_positive(self):
        with pytest.raises(EvidenceError):
            select_candidates(self.RANKING, K=0, mode="overall")

    def test_order_invariant_to_monotone_transform(self):
        doubled = _ranking({c: 2.0 * s + 3.0 for c, s in self.SCORES.items()})
        a = select_candidates(self.RANKING, K=5, mode="overall")
        b = select_candidates(doubled, K=5, mode="overall")
        assert a.codes == b.codes

    def test_unknown_code_score_raises(self):
        scores = list(self.SCORES.values())
        assert score(self.VOCAB, scores, "C05") == 1.0
        with pytest.raises(BackendError, match="not in logit vector"):
            score(self.VOCAB, scores, "C09")

    def test_matches_brute_force_order(self):
        rng = np.random.default_rng(0)
        vocab = [f"C{i:03d}" for i in range(60)]
        for _ in range(50):
            # Few distinct values, so ties are common.
            scores = rng.integers(-3, 3, size=len(vocab)) / 2.0
            ranking = _ranking(dict(zip(vocab, scores)))
            history = frozenset(rng.choice(vocab, size=5, replace=False))
            want = sorted((c for c in vocab if c not in history),
                          key=lambda c: (-scores[vocab.index(c)], c))[:10]
            got = select_candidates(ranking, K=10, mode="novel", history_ccs=history)
            assert got.codes == tuple(want)

    def test_zero_logits_list_every_eligible_code_in_code_order(self):
        # Logit ties break by code: all-zero logits with K = |vocab|.
        vocab = self.VOCAB
        zero = ranked(vocab, [0.0] * len(vocab))
        history = frozenset({"C02", "C04"})
        for mode in ("overall", "novel"):
            got = select_candidates(zero, K=len(vocab), mode=mode, history_ccs=history)
            pool = sorted(c for c in vocab if mode == "overall" or c not in history)
            assert got.codes == tuple(pool)


CODES = st.text("ABC", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(vocab=st.sets(CODES, min_size=1), mode=st.sampled_from(TASKS),
       history=st.frozensets(CODES))
def test_eligible_candidates_are_the_top_vocab_of_zero_logits(vocab, mode, history):
    """The no-scorer candidate list equals what the scorer's path made of
    all-zero logits with K = |vocab|. The history may hold codes off the
    vocabulary."""
    vocab = tuple(sorted(vocab))
    zero = ranked(vocab, [0.0] * len(vocab))
    assert eligible_candidates(vocab, mode, history) == select_candidates(
        zero, len(vocab), mode, history)


class TestPrioritizeHistory:
    def test_descending_logit_with_tie_break(self):
        ranking = _ranking({"C01": 1.0, "C02": 5.0, "C03": 1.0, "C04": 0.0})
        got = prioritize_history({"C01", "C02", "C03"}, ranking)
        assert got == ["C02", "C01", "C03"]

    def test_missing_logit_rejected(self):
        ranking = _ranking({"C01": 1.0})
        with pytest.raises(EvidenceError, match="C09"):
            prioritize_history({"C09"}, ranking)


class TestPropagateToIcd:
    def test_groups_follow_order_and_first_occurrence(self, ontology):
        visits = (
            Visit(day=0, icd=("I01b", "I02a"), ccs=("C01", "C02")),
            Visit(day=5, icd=("I01a", "I01b"), ccs=("C01",)),
        )
        groups = propagate_to_icd(["C02", "C01"], visits, ontology)
        assert [g.ccs for g in groups] == ["C02", "C01"]
        assert groups[0].icds == ("I02a",)
        # I01b seen on day 0 before I01a on day 5.
        assert groups[1].icds == ("I01b", "I01a")

    def test_unlisted_parent_goes_to_unmapped(self, ontology):
        visits = (Visit(day=0, icd=("I01a", "I03a"), ccs=("C01", "C03")),)
        groups = propagate_to_icd(["C01"], visits, ontology)
        assert [g.ccs for g in groups] == ["C01", UNMAPPED_GROUP]
        assert groups[-1].icds == ("I03a",)

    def test_no_unmapped_group_when_everything_is_listed(self, ontology):
        visits = (Visit(day=0, icd=("I01a",), ccs=("C01",)),)
        groups = propagate_to_icd(["C01"], visits, ontology)
        assert [g.ccs for g in groups] == ["C01"]

    def test_every_input_icd_lands_exactly_once(self, ontology, dataset):
        for p in dataset.patients:
            ordered = sorted({c for v in p.visits for c in v.ccs})
            groups = propagate_to_icd(ordered, p.visits, ontology)
            spread = [icd for g in groups for icd in g.icds]
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
        return CooccurrenceMatrix(vocab=VOCAB, counts=dense_counts(counts, VOCAB),
                                  n_patients=10)

    def _candidates(self, codes: list[str]) -> CandidateSet:
        return CandidateSet(codes=tuple(codes), mode="overall")

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

    def test_matches_loop_over_history(self):
        """The argmax over history rows links exactly as a loop that keeps
        the first strictly larger count over the sorted history."""
        linked = 0
        for seed in range(10):
            ds, ontology = generate_synthetic(SyntheticConfig(n_patients=40, n_ccs=15,
                                                              seed=seed))
            vocab = ontology.ccs_codes
            G = build_cooccurrence(ds, vocab)
            pairs = brute_force_counts(ds)
            rng = np.random.default_rng(seed)
            for inst in build_instances(ds):
                ranking = ranked(vocab, rng.integers(-2, 2, len(vocab)))
                for mode in ("overall", "novel"):
                    cands = select_candidates(ranking, 8, mode, inst.history_ccs)
                    want = []
                    history = sorted(inst.history_ccs)
                    for cand in cands.codes:
                        if cand in history:
                            continue
                        best_code, best = "", 0
                        for h in history:
                            c = pairs.get((min(h, cand), max(h, cand)), 0)
                            if c > best:
                                best_code, best = h, c
                        if best > 0:
                            want.append(RelationLink(best_code, cand, best))
                    got = extract_relations(inst.history_ccs, cands, G)
                    assert got.links == tuple(want)
                    linked += len(want)
        assert linked > 100

    def test_code_outside_vocabulary_rejected(self):
        with pytest.raises(EvidenceError, match="C09"):
            extract_relations({"C09"}, self._candidates(["C05"]), self._matrix())

    def test_duplicate_candidate_links_rejected(self):
        with pytest.raises(EvidenceError):
            RelationalEvidence(
                links=(RelationLink("C01", "C05", 1), RelationLink("C02", "C05", 2))
            )
