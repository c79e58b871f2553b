"""Evidence extraction around a trained scorer: top-K candidate selection,
ranked history prioritization with ICD propagation, and co-occurrence
based relational links between history and candidates. It reads only the
scorer's ranking of the vocabulary and counts in Python ints, so it loads
no numpy.
"""
from __future__ import annotations

import csv
import json
import operator
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

from . import InputError, record
from .ehr import TASKS, Dataset, Ontology, Ranking, Visit, check_provenance, vocab_index

UNMAPPED_GROUP = "unmapped"

CandidateMode = str  # one of ehr.TASKS


class EvidenceError(InputError):
    """Raised for inconsistent evidence inputs."""


# ---------------------------------------------------------------------------
# Co-occurrence
# ---------------------------------------------------------------------------


@record(frozen=True)
class CooccurrenceMatrix:
    """Symmetric patient-level co-occurrence counts over a sorted CCS
    vocabulary.

    counts[i][j] is the number of patients carrying both vocab[i] and
    vocab[j] in any of their visits (binary per patient); the diagonal is
    the per-code patient count. Counts are exact Python ints, one row tuple
    per code.
    """

    vocab: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    n_patients: int

    def __post_init__(self):
        n, counts = self.n_patients, self.counts
        if n < 0:
            raise EvidenceError("negative n_patients")
        diagonal = [row[i] for i, row in enumerate(counts)]
        # Whole rows are checked at C speed; only a bad row is searched for
        # its first bad entry, so the message names the first in row-major order.
        for i, row in enumerate(counts):
            if (min(row) < 0 or max(row) > min(n, diagonal[i])
                    or any(map(operator.gt, row, diagonal))):
                j = next(j for j, v in enumerate(row)
                         if not 0 <= v <= min(n, diagonal[i], diagonal[j]))
                raise EvidenceError(_bound_error(self.vocab[i], self.vocab[j], row[j],
                                                 n, min(diagonal[i], diagonal[j])))


def _bound_error(i: str, j: str, v: int, n_patients: int, diagonal: int) -> str:
    if v < 0:
        return f"negative count for ({i}, {j})"
    if i != j and v > diagonal:
        return f"count({i},{j})={v} exceeds a diagonal entry"
    return f"count({i},{j})={v} exceeds n_patients"


def _positions(index: dict[str, int], codes: Iterable[str]) -> list[int]:
    try:
        return [index[c] for c in codes]
    except KeyError as exc:
        raise EvidenceError(f"CCS code {exc.args[0]!r} is not in the vocabulary") from None


def _symmetric(vocab: tuple[str, ...], upper: dict[tuple[int, int], int]
               ) -> tuple[tuple[int, ...], ...]:
    """The dense symmetric counts whose upper triangle holds `upper`'s
    (i, j) -> count entries and is 0 elsewhere."""
    rows = [[0] * len(vocab) for _ in vocab]
    for (i, j), v in upper.items():
        rows[i][j] = rows[j][i] = v
    return tuple(map(tuple, rows))


def build_cooccurrence(train_dataset: Dataset, vocab: tuple[str, ...]) -> CooccurrenceMatrix:
    """counts(i, j) = number of patients diagnosed with both i and j,
    counted pair by pair over each patient's codes."""
    index = vocab_index(vocab)
    upper: dict[tuple[int, int], int] = {}
    for patient in train_dataset.patients:
        codes = sorted(_positions(index, patient.all_ccs()))
        for a, i in enumerate(codes):
            for j in codes[a:]:
                upper[i, j] = upper.get((i, j), 0) + 1
    return CooccurrenceMatrix(vocab=vocab, counts=_symmetric(vocab, upper),
                              n_patients=len(train_dataset))


COOC_COLUMNS = ["ccs_i", "ccs_j", "count"]


def save_cooccurrence(matrix: CooccurrenceMatrix, path: str | Path, split: dict) -> int:
    """Write the nonzero upper triangle (i <= j) as CSV triples in row-major order, under
    comment lines carrying n_patients and `split`, the split counted; return the triple count."""
    vocab = matrix.vocab
    triples = [(vocab[i], vocab[j], v) for i, row in enumerate(matrix.counts)
               for j, v in enumerate(row[i:], start=i) if v]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# n_patients={matrix.n_patients}\n")
        fh.write(f"# split={json.dumps(split, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(COOC_COLUMNS)
        writer.writerows(triples)
    return len(triples)


def load_cooccurrence(path: str | Path, vocab: tuple[str, ...], split: dict) -> CooccurrenceMatrix:
    """Read counts over `vocab` of the split `split` records; each row names
    a new pair of its codes with ccs_i <= ccs_j, and the lower triangle mirrors the upper one."""
    index = vocab_index(vocab)
    # Each listed pair's count, filled into the matrix at the end.
    listed: dict[tuple[int, int], int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first.startswith("# n_patients="):
            raise EvidenceError("missing n_patients comment header")
        try:
            n_patients = int(first.split("=", 1)[1])
        except ValueError:
            raise EvidenceError(f"bad n_patients header {first!r}") from None
        tag, _, found = fh.readline().partition("=")
        check_provenance(found if tag == "# split" else "", split, "cooc")
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != COOC_COLUMNS:
            raise EvidenceError(f"co-occurrence columns {header!r}, expected {COOC_COLUMNS!r}")
        for row in reader:
            if not row:  # blank lines carry no row, as csv.DictReader treats them
                continue
            try:
                v = int(row[2])
            except (IndexError, ValueError):
                raise EvidenceError(f"bad co-occurrence row {_row_fields(row)!r}") from None
            if not 0 <= v <= n_patients:
                raise EvidenceError(_bound_error(row[0], row[1], v, n_patients, n_patients))
            try:
                i, j = index[row[0]], index[row[1]]
            except KeyError:  # a call per row would cost a quarter of the load
                _positions(index, row[:2])  # raises, naming the unknown code
            if i > j:
                raise EvidenceError(f"co-occurrence row ({row[0]}, {row[1]}) has ccs_i > ccs_j")
            if (i, j) in listed:
                raise EvidenceError(f"co-occurrence pair ({row[0]}, {row[1]}) listed twice")
            listed[i, j] = v
    return CooccurrenceMatrix(vocab=vocab, counts=_symmetric(vocab, listed),
                              n_patients=n_patients)


def _row_fields(row: list[str]) -> dict:
    """A row keyed by column, as csv.DictReader reports it: missing fields
    are None and extra ones are listed under None."""
    fields: dict = dict(zip(COOC_COLUMNS, row + [None] * len(COOC_COLUMNS)))
    if len(row) > len(COOC_COLUMNS):
        fields[None] = row[len(COOC_COLUMNS):]
    return fields


# ---------------------------------------------------------------------------
# Candidate selection and history prioritization
# ---------------------------------------------------------------------------


@record(frozen=True)
class CandidateSet:
    """Candidate codes, by descending logit with code-id ascending tie-break
    or, with no scorer, in code order; in novel mode none is a history code."""

    codes: tuple[str, ...]
    mode: CandidateMode

    def __post_init__(self):
        if self.mode not in TASKS:
            raise EvidenceError(f"unknown candidate mode {self.mode!r}")


def select_candidates(
    ranking: Ranking,
    K: int,
    mode: CandidateMode,
    history_ccs: frozenset[str] = frozenset(),
) -> CandidateSet:
    """The top K codes of the scorer's ranking; novel mode removes history
    codes before the cut, so the set stays at K when enough codes remain."""
    if K < 1:
        raise EvidenceError("K must be at least 1")
    codes = ranking.codes()
    if mode == "novel":
        codes = (c for c in codes if c not in history_ccs)
    return CandidateSet(codes=tuple(islice(codes, K)), mode=mode)


def eligible_candidates(vocab: Sequence[str], mode: CandidateMode,
                        history: frozenset[str]) -> CandidateSet:
    """Every code `mode` admits, in vocabulary order; no scorer output is read."""
    return CandidateSet(tuple(c for c in vocab if mode == "overall" or c not in history), mode)


def prioritize_history(
    history_ccs: Iterable[str], ranking: Ranking
) -> list[str]:
    """History codes in the scorer's ranking order: by descending logit,
    ties by code id."""
    history = set(history_ccs)
    index = vocab_index(ranking.vocab)
    for h in sorted(history):
        if h not in index:
            raise EvidenceError(f"history code {h!r} has no logit")
    return [c for c in ranking.codes() if c in history]


@record(frozen=True)
class HistoryGroup:
    ccs: str
    icds: tuple[str, ...]


def propagate_to_icd(
    ordered_ccs: Sequence[str],
    input_visits: Sequence[Visit],
    ontology: Ontology,
) -> tuple[HistoryGroup, ...]:
    """Group the input visits' ICD codes under the ordered CCS list.

    Each group collects the distinct ICDs mapping to its CCS in first
    occurrence order (visits in time order, sorted within a visit). ICDs
    whose parent is absent from ordered_ccs land in a trailing group keyed
    UNMAPPED_GROUP.
    """
    listed = set(ordered_ccs)
    if len(listed) != len(ordered_ccs):
        raise EvidenceError("ordered_ccs contains duplicates")
    buckets: dict[str, list[str]] = {c: [] for c in ordered_ccs}
    unmapped: list[str] = []
    seen: set[str] = set()
    for visit in input_visits:
        for icd in visit.icd:
            if icd in seen:
                continue
            seen.add(icd)
            parent = ontology.icd_to_ccs.get(icd)
            if parent in listed:
                buckets[parent].append(icd)
            else:
                unmapped.append(icd)
    groups = [HistoryGroup(ccs=c, icds=tuple(buckets[c])) for c in ordered_ccs]
    if unmapped:
        groups.append(HistoryGroup(ccs=UNMAPPED_GROUP, icds=tuple(unmapped)))
    return tuple(groups)


# ---------------------------------------------------------------------------
# Relational evidence
# ---------------------------------------------------------------------------


@record(frozen=True)
class RelationLink:
    history_ccs: str
    candidate_ccs: str
    count: int


@record(frozen=True)
class RelationalEvidence:
    links: tuple[RelationLink, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for link in self.links:
            if link.candidate_ccs in seen:
                raise EvidenceError(
                    f"candidate {link.candidate_ccs!r} linked twice"
                )
            seen.add(link.candidate_ccs)
            if link.count <= 0:
                raise EvidenceError("relational link with non-positive count")


def extract_relations(
    history_ccs: Iterable[str],
    candidates: CandidateSet,
    G: CooccurrenceMatrix,
) -> RelationalEvidence:
    """Link each candidate outside the history to its most co-occurring
    historical code; ties go to the lexicographically smaller history code,
    and zero co-occurrence yields no link."""
    listed = set(history_ccs)
    history = sorted(listed)
    novel = [c for c in candidates.codes if c not in listed]
    if not history:
        return RelationalEvidence(links=())
    index = vocab_index(G.vocab)
    rows = [G.counts[i] for i in _positions(index, history)]
    links = []
    for candidate, j in zip(novel, _positions(index, novel)):
        column = [row[j] for row in rows]
        best = max(column)
        # Rows follow the sorted history, so the first maximum is the
        # smallest history code.
        if best > 0:
            links.append(RelationLink(history_ccs=history[column.index(best)],
                                      candidate_ccs=candidate, count=best))
    return RelationalEvidence(links=tuple(links))
