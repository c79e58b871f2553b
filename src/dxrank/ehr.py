"""Core EHR data model: diagnosis vocabularies and rankings of them, patient
records, dataset I/O, patient-level splitting, and instance construction.

Diagnosis codes live at two granularities: fine-grained ICD codes and the
coarse CCS categories that group them. The ontology is a many-to-one
ICD -> CCS map; CCS is the prediction target space throughout.
"""
from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import InputError, field, json_value, record
from .config import TASKS, BackendError, SplitError, check_split_ratios
from .rng import Pcg64


class OntologyError(InputError):
    """Raised for malformed or inconsistent ontology inputs."""


class DatasetError(InputError):
    """Raised for malformed dataset files or codes that do not resolve."""


@record(frozen=True)
class Ontology:
    """Many-to-one ICD -> CCS map with display names for both levels."""

    icd_to_ccs: dict[str, str]
    icd_names: dict[str, str]
    ccs_names: dict[str, str]
    ccs_to_icd: dict[str, tuple[str, ...]] = field(init=False)

    def __post_init__(self):
        for icd, ccs in self.icd_to_ccs.items():
            if not icd:
                raise OntologyError("empty ICD id")
            if ccs not in self.ccs_names:
                raise OntologyError(f"ICD {icd!r} maps to unknown CCS {ccs!r}")
        inverse: dict[str, list[str]] = {c: [] for c in self.ccs_names}
        for icd in sorted(self.icd_to_ccs):
            inverse[self.icd_to_ccs[icd]].append(icd)
        object.__setattr__(
            self, "ccs_to_icd", {c: tuple(v) for c, v in inverse.items()}
        )

    @property
    def ccs_codes(self) -> tuple[str, ...]:
        """All CCS ids in sorted order; the canonical vocabulary ordering."""
        return tuple(sorted(self.ccs_names))

    def icd_name(self, icd: str) -> str:
        return self.icd_names.get(icd, icd)

    def ccs_name(self, ccs: str) -> str:
        return self.ccs_names.get(ccs, ccs)

    def ccs_of(self, icd: str) -> str:
        try:
            return self.icd_to_ccs[icd]
        except KeyError:
            raise OntologyError(f"ICD code {icd!r} not in ontology") from None

    def image(self, icds: Iterable[str]) -> frozenset[str]:
        """CCS image of a set of ICD codes."""
        return frozenset(self.ccs_of(i) for i in icds)


@record(frozen=True)
class Visit:
    """One encounter: a day offset plus the diagnosis codes recorded there.

    Code collections are normalized to sorted tuples so visits compare by
    set content and serialize deterministically.
    """

    day: int
    icd: tuple[str, ...]
    ccs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "icd", tuple(sorted(set(self.icd))))
        object.__setattr__(self, "ccs", tuple(sorted(set(self.ccs))))
        if not self.icd:
            raise DatasetError("visit has no ICD codes")
        if self.day < 0:
            raise DatasetError(f"negative visit day {self.day}")

    @property
    def ccs_set(self) -> frozenset[str]:
        return frozenset(self.ccs)


@record(frozen=True)
class PatientRecord:
    """Ordered visit sequence for one patient."""

    patient_id: str
    visits: tuple[Visit, ...]

    def __post_init__(self):
        object.__setattr__(self, "visits", tuple(self.visits))
        if not self.visits:
            raise DatasetError(f"patient {self.patient_id!r} has no visits")
        days = [v.day for v in self.visits]
        if days != sorted(days):
            object.__setattr__(
                self, "visits", tuple(sorted(self.visits, key=lambda v: v.day))
            )

    def all_ccs(self) -> frozenset[str]:
        return frozenset(c for v in self.visits for c in v.ccs)


@record(frozen=True)
class Dataset:
    """Patients in id order, whatever order the input listed them in."""

    patients: tuple[PatientRecord, ...]

    def __post_init__(self):
        by_id = sorted(self.patients, key=lambda p: p.patient_id)
        object.__setattr__(self, "patients", tuple(by_id))
        seen: set[str] = set()
        for p in self.patients:
            if p.patient_id in seen:
                raise DatasetError(f"duplicate patient id {p.patient_id!r}")
            seen.add(p.patient_id)

    def __len__(self) -> int:
        return len(self.patients)


@record(frozen=True)
class PredictionInstance:
    """One next-visit prediction problem: an input prefix and its targets.

    Derived: `history_ccs`, the input visits' CCS codes, and `target_novel`, the
    target's codes outside them. `days_to_target` counts from the last input visit.
    """

    patient_id: str
    input_visits: tuple[Visit, ...]
    target_overall: frozenset[str]
    target_novel: frozenset[str] = field(init=False)
    history_ccs: frozenset[str] = field(init=False)
    days_to_target: int = 0

    def __post_init__(self):
        if not self.input_visits:
            raise DatasetError("prediction instance with empty input")
        history = frozenset(c for v in self.input_visits for c in v.ccs)
        object.__setattr__(self, "history_ccs", history)
        object.__setattr__(self, "target_novel", self.target_overall - history)


@record(frozen=True)
class Ranking:
    """A scorer's order of a sorted vocabulary: `positions` holds each
    vocabulary position once, from the highest score down, ties in code
    order. It is all the evidence layer reads of a scorer."""

    vocab: tuple[str, ...]
    positions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vocab", tuple(self.vocab))
        object.__setattr__(self, "positions", tuple(self.positions))
        if (not set(map(type, self.positions)) <= {int}
                or sorted(self.positions) != list(range(len(self.vocab)))):
            raise BackendError("ranking is not a permutation of the vocabulary")

    def codes(self) -> Iterator[str]:
        """The vocabulary in ranking order."""
        return map(self.vocab.__getitem__, self.positions)


def code_index(vocab: tuple[str, ...]) -> dict[str, int]:
    return {c: i for i, c in enumerate(vocab)}


# Every ranking of a model shares one vocabulary, so its code -> position
# map is built once. Callers must not mutate the returned dict.
vocab_index = lru_cache(maxsize=8)(code_index)


# ---------------------------------------------------------------------------
# Ontology I/O (CSV: icd_id,icd_name,ccs_id,ccs_name)
# ---------------------------------------------------------------------------

ONTOLOGY_COLUMNS = ("icd_id", "icd_name", "ccs_id", "ccs_name")


def load_ontology(path: str | Path) -> Ontology:
    """Load an ICD->CCS ontology from CSV, enforcing the many-to-one map."""
    import csv

    icd_to_ccs: dict[str, str] = {}
    icd_names: dict[str, str] = {}
    ccs_names: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ONTOLOGY_COLUMNS if c not in header]
        if missing:
            raise OntologyError(f"ontology CSV missing columns: {missing}")
        for lineno, row in enumerate(reader, start=2):
            icd, ccs = row["icd_id"], row["ccs_id"]
            if not icd or not ccs:
                raise OntologyError(f"line {lineno}: empty code id")
            if icd in icd_to_ccs and icd_to_ccs[icd] != ccs:
                raise OntologyError(
                    f"line {lineno}: ICD {icd!r} mapped to both "
                    f"{icd_to_ccs[icd]!r} and {ccs!r}"
                )
            icd_to_ccs[icd] = ccs
            if icd in icd_names and icd_names[icd] != row["icd_name"]:
                raise OntologyError(f"line {lineno}: ICD {icd!r} renamed")
            icd_names[icd] = row["icd_name"]
            if ccs in ccs_names and ccs_names[ccs] != row["ccs_name"]:
                raise OntologyError(f"line {lineno}: CCS {ccs!r} renamed")
            ccs_names[ccs] = row["ccs_name"]
    return Ontology(icd_to_ccs=icd_to_ccs, icd_names=icd_names, ccs_names=ccs_names)


def save_ontology(ontology: Ontology, path: str | Path) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ONTOLOGY_COLUMNS)
        for icd in sorted(ontology.icd_to_ccs):
            ccs = ontology.icd_to_ccs[icd]
            writer.writerow(
                [icd, ontology.icd_name(icd), ccs, ontology.ccs_name(ccs)]
            )


# ---------------------------------------------------------------------------
# Dataset I/O (JSONL: one patient per line)
# ---------------------------------------------------------------------------


def load_dataset(path: str | Path, ontology: Ontology) -> Dataset:
    """Load a JSONL dataset and validate every code against the ontology.

    Per-visit `ccs` entries are recomputed checks, not trusted: a stored set
    that disagrees with the ICD image is an error, and a missing `ccs` key is
    filled in from the ontology.
    """
    patients: list[PatientRecord] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {lineno}: invalid JSON ({exc})") from None
            # A wrong JSON type anywhere in the record raises a built-in error.
            try:
                pid, visits = obj["patient_id"], []
                if not isinstance(pid, str):
                    raise TypeError(f"patient_id {pid!r} is not a string")
                for v in obj["visits"]:
                    icd = v.get("icd", [])
                    for code in icd:
                        if code not in ontology.icd_to_ccs:
                            raise DatasetError(
                                f"line {lineno}: patient {pid!r} has ICD code "
                                f"{code!r} not in ontology"
                            )
                    derived = ontology.image(icd)
                    if "ccs" in v:
                        stated = frozenset(v["ccs"])
                        if stated != derived:
                            raise DatasetError(
                                f"line {lineno}: patient {pid!r} visit day "
                                f"{v.get('day')}: stored ccs does not match the "
                                f"ontology image of its icd codes"
                            )
                    if "day" not in v:
                        raise DatasetError(
                            f"line {lineno}: patient {pid!r} has a visit without a day"
                        )
                    day = json_value(int, v["day"], f"line {lineno}: visit day")
                    visits.append(Visit(day=day, icd=tuple(icd), ccs=tuple(derived)))
                patients.append(PatientRecord(patient_id=pid, visits=tuple(visits)))
            except InputError:
                raise
            except KeyError as exc:
                raise DatasetError(f"line {lineno}: missing field {exc}") from None
            except (AttributeError, OverflowError, TypeError, ValueError) as exc:
                raise DatasetError(f"line {lineno}: malformed record: {exc}") from None
    return Dataset(patients=tuple(patients))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """JSONL in patient id order, code lists sorted: equal data, equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in dataset.patients:
            obj = {
                "patient_id": p.patient_id,
                "visits": [
                    {"day": v.day, "icd": list(v.icd), "ccs": list(v.ccs)}
                    for v in p.visits
                ],
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Splitting and instance construction
# ---------------------------------------------------------------------------


def split_patients(
    dataset: Dataset,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Partition patients into train/val/test with largest-remainder sizing.

    The order is `numpy.random.default_rng(seed).permutation(n)`, drawn by
    `dxrank.rng`; parts keep the original patient order.
    """
    check_split_ratios(ratios)
    n = len(dataset.patients)
    n_nonzero = sum(1 for r in ratios if r > 0)
    if n < n_nonzero:
        raise SplitError(
            f"cannot split {n} patients into {n_nonzero} non-empty parts"
        )

    exact = [r * n for r in ratios]
    sizes = [int(math.floor(x)) for x in exact]
    remainders = [x - s for x, s in zip(exact, sizes)]
    while sum(sizes) < n:
        # Largest remainder first; earlier part wins exact ties.
        idx = max(range(3), key=lambda i: (remainders[i], -i))
        sizes[idx] += 1
        remainders[idx] = -1.0

    order = Pcg64(seed).permutation(n)
    parts, start = [], 0
    for size in sizes:
        chosen = sorted(order[start:start + size])
        parts.append(Dataset(patients=tuple(dataset.patients[j] for j in chosen)))
        start += size
    return parts[0], parts[1], parts[2]


def build_instances(
    dataset: Dataset, all_prefixes: bool = False
) -> list[PredictionInstance]:
    """Turn each patient with at least two visits into next-visit
    prediction instances.

    Default is one instance per patient (all but the last visit as input,
    the last as target). `all_prefixes=True` emits one instance for every
    visit transition instead.
    """
    instances: list[PredictionInstance] = []
    for p in dataset.patients:
        if len(p.visits) < 2:
            continue
        cut_points = range(1, len(p.visits)) if all_prefixes else [len(p.visits) - 1]
        for t in cut_points:
            inputs = p.visits[:t]
            target = p.visits[t]
            instances.append(
                PredictionInstance(
                    patient_id=p.patient_id,
                    input_visits=inputs,
                    target_overall=target.ccs_set,
                    days_to_target=target.day - inputs[-1].day,
                )
            )
    return instances


# ---------------------------------------------------------------------------
# Scorer rankings (JSONL: a meta line, then one prediction instance per line)
# ---------------------------------------------------------------------------


def check_provenance(line: str, expected: dict, command: str) -> None:
    """Raise InputError unless `line` is the JSON of `expected`, the record `command`
    writes of the inputs at hand, naming the first field or file sha256 that differs."""
    again = f"(run `dxrank {command}` again)"
    try:
        found = json.loads(line)
    except (ValueError, RecursionError):  # not JSON, or nested too deep
        found = None
    if not isinstance(found, dict) or found.keys() != expected.keys():
        raise InputError(f"no record of the inputs it was built from {again}")
    for key, want in expected.items():
        if key != "sha256" and found[key] != want:
            raise InputError(f"written for {key} {found[key]!r}, not {want!r} {again}")
    for name, digest in expected["sha256"].items():
        if not isinstance(found["sha256"], dict) or found["sha256"].get(name) != digest:
            raise InputError(f"{name} changed since `dxrank {command}` ran {again}")


def save_rankings(path: str | Path, meta: dict, instances: Sequence[PredictionInstance],
                  rankings: Sequence[Ranking]) -> None:
    """Write `meta`, then each instance's patient id and ranking positions."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for instance, ranking in zip(instances, rankings):
            fh.write(json.dumps({"patient_id": instance.patient_id,
                                 "positions": list(ranking.positions)}) + "\n")


def load_rankings(path: str | Path, meta: dict, instances: Sequence[PredictionInstance],
                  vocab: tuple[str, ...]) -> list[Ranking]:
    """The rankings over `vocab` that `save_rankings` wrote under `meta` for `instances`, in
    order; a meta line other than `meta`, a malformed line or other patients is an input error."""
    with open(path, encoding="utf-8") as fh:
        check_provenance(fh.readline(), meta, "train")
        try:
            rows = [json.loads(line) for line in fh]
            if [row["patient_id"] for row in rows] != [i.patient_id for i in instances]:
                raise InputError("its patients are not the test split's (run `dxrank train` again)")
            return [Ranking(vocab, row["positions"]) for row in rows]
        # Not JSON, another shape, or nested too deep; the InputErrors above pass.
        except (json.JSONDecodeError, TypeError, KeyError, RecursionError):
            raise InputError("malformed ranking line") from None
