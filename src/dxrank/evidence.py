"""Evidence extraction around a trained scorer: top-K candidate selection,
logit-ranked history prioritization with ICD propagation, and co-occurrence
based relational links between history and candidates.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import InputError
from .backends import LogitVector
from .ehr import TASKS, Dataset, Ontology, Visit

UNMAPPED_GROUP = "unmapped"

CandidateMode = str  # one of ehr.TASKS


class EvidenceError(InputError):
    """Raised for inconsistent evidence inputs."""


# ---------------------------------------------------------------------------
# Co-occurrence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """Symmetric patient-level co-occurrence counts over CCS codes.

    counts[(i, j)] is the number of patients carrying both i and j in any
    of their visits (binary per patient); the diagonal is the per-code
    patient count.
    """

    counts: dict[tuple[str, str], int]
    n_patients: int

    def __post_init__(self):
        n = self.n_patients
        if n < 0:
            raise EvidenceError("negative n_patients")
        diagonal = {i: int(v) for (i, j), v in self.counts.items() if i == j}
        canon: dict[tuple[str, str], int] = {}
        for (i, j), v in self.counts.items():
            key = (i, j) if i <= j else (j, i)
            v = int(v)
            if canon.setdefault(key, v) != v:
                raise EvidenceError(f"asymmetric counts for pair {key}")
            if not 0 <= v <= n or (
                i != j and (v > diagonal.get(i, 0) or v > diagonal.get(j, 0))
            ):
                raise EvidenceError(_bound_error(*key, v, n, diagonal))
        object.__setattr__(self, "counts", canon)

    def count(self, i: str, j: str) -> int:
        key = (i, j) if i <= j else (j, i)
        return self.counts.get(key, 0)


def _bound_error(i: str, j: str, v: int, n_patients: int,
                 diagonal: dict[str, int]) -> str:
    if v < 0:
        return f"negative count for ({i}, {j})"
    if i != j and v > min(diagonal.get(i, 0), diagonal.get(j, 0)):
        return f"count({i},{j})={v} exceeds a diagonal entry"
    return f"count({i},{j})={v} exceeds n_patients"


def build_cooccurrence(train_dataset: Dataset) -> CooccurrenceMatrix:
    """counts(i, j) = number of patients diagnosed with both i and j."""
    counts: dict[tuple[str, str], int] = {}
    for patient in train_dataset.patients:
        codes = sorted(patient.all_ccs())
        for a_pos, a in enumerate(codes):
            for b in codes[a_pos:]:
                counts[(a, b)] = counts.get((a, b), 0) + 1
    return CooccurrenceMatrix(counts=counts, n_patients=len(train_dataset))


COOC_COLUMNS = ["ccs_i", "ccs_j", "count"]


def save_cooccurrence(matrix: CooccurrenceMatrix, path: str | Path) -> None:
    """CSV triples (i <= j) under a comment line carrying n_patients."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# n_patients={matrix.n_patients}\n")
        writer = csv.writer(fh)
        writer.writerow(COOC_COLUMNS)
        for (i, j) in sorted(matrix.counts):
            writer.writerow([i, j, matrix.counts[(i, j)]])


def load_cooccurrence(path: str | Path) -> CooccurrenceMatrix:
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first.startswith("# n_patients="):
            raise EvidenceError("missing n_patients comment header")
        try:
            n_patients = int(first.split("=", 1)[1])
        except ValueError:
            raise EvidenceError(f"bad n_patients header {first!r}") from None
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != COOC_COLUMNS:
            raise EvidenceError(f"co-occurrence columns {header!r}, expected {COOC_COLUMNS!r}")
        counts: dict[tuple[str, str], int] = {}
        for row in reader:
            if not row:  # blank lines carry no row, as csv.DictReader treats them
                continue
            try:
                counts[(row[0], row[1])] = int(row[2])
            except (IndexError, ValueError):
                raise EvidenceError(f"bad co-occurrence row {_row_fields(row)!r}") from None
    return CooccurrenceMatrix(counts=counts, n_patients=n_patients)


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


@dataclass(frozen=True)
class CandidateSet:
    """Top-K candidates as (code, logit), descending by logit with code-id
    ascending tie-break; in novel mode no entry comes from the history."""

    entries: tuple[tuple[str, float], ...]
    K: int
    mode: CandidateMode

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((c, float(s)) for c, s in self.entries)
        )
        if self.mode not in TASKS:
            raise EvidenceError(f"unknown candidate mode {self.mode!r}")
        if self.K < 1:
            raise EvidenceError("K must be at least 1")
        if len(self.entries) > self.K:
            raise EvidenceError("more entries than K")
        for (c1, s1), (c2, s2) in zip(self.entries, self.entries[1:]):
            if s1 < s2 or (s1 == s2 and c1 >= c2):
                raise EvidenceError("entries not in descending logit order")

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.entries)


def select_candidates(
    logits: LogitVector,
    K: int,
    mode: CandidateMode,
    history_ccs: frozenset[str] = frozenset(),
) -> CandidateSet:
    """Top-K codes by logit; novel mode removes history codes before the
    cut, so the set stays at K when enough codes remain."""
    if K < 1:
        raise EvidenceError("K must be at least 1")
    if mode not in TASKS:
        raise EvidenceError(f"unknown candidate mode {mode!r}")
    scores = logits.as_dict()
    pool = logits.vocab
    if mode == "novel":
        pool = tuple(c for c in pool if c not in history_ccs)
    ranked = sorted(pool, key=lambda c: (-scores[c], c))
    entries = tuple((c, scores[c]) for c in ranked[:K])
    return CandidateSet(entries=entries, K=K, mode=mode)


def prioritize_history(
    history_ccs: Iterable[str], logits: LogitVector
) -> list[str]:
    """History codes ordered by descending logit, ties by code id."""
    history = sorted(set(history_ccs))
    index = set(logits.vocab)
    for h in history:
        if h not in index:
            raise EvidenceError(f"history code {h!r} has no logit")
    return sorted(history, key=lambda c: (-logits.score(c), c))


@dataclass(frozen=True)
class HistoryGroup:
    ccs: str
    icds: tuple[str, ...]
    logit: float


@dataclass(frozen=True)
class PrioritizedHistory:
    groups: tuple[HistoryGroup, ...]


def propagate_to_icd(
    ordered_ccs: Sequence[str],
    input_visits: Sequence[Visit],
    ontology: Ontology,
    logits: LogitVector | None = None,
) -> PrioritizedHistory:
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
    groups = [
        HistoryGroup(
            ccs=c,
            icds=tuple(buckets[c]),
            logit=logits.score(c) if logits is not None else 0.0,
        )
        for c in ordered_ccs
    ]
    if unmapped:
        # Trailing group; the logit slot is unused for ordering.
        groups.append(HistoryGroup(ccs=UNMAPPED_GROUP, icds=tuple(unmapped), logit=0.0))
    return PrioritizedHistory(groups=tuple(groups))


# ---------------------------------------------------------------------------
# Relational evidence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationLink:
    history_ccs: str
    candidate_ccs: str
    count: int


@dataclass(frozen=True)
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
    history = sorted(set(history_ccs))
    links: list[RelationLink] = []
    for cand in candidates.codes:
        if cand in history:
            continue
        best_code, best_count = "", 0
        for h in history:
            c = G.count(h, cand)
            if c > best_count:
                best_code, best_count = h, c
        if best_count > 0:
            links.append(
                RelationLink(history_ccs=best_code, candidate_ccs=cand,
                             count=best_count)
            )
    return RelationalEvidence(links=tuple(links))
