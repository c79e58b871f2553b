"""Run artifacts and ranking metrics.

A run artifact holds one record per prediction instance (prompt, raw reply,
parsed ranking, targets). Scoring computes visit-level precision@k and
code-level accuracy@k for the overall and novel tasks; novel scoring drops
history codes from the ranking first and skips instances with no novel
target. Ablation comparison lines up several reports and takes deltas
between consecutive configurations.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import InputError, from_json
from .config import DEFAULT_KS, TASKS

METRICS = ("visit_precision", "code_accuracy")


class EvalError(InputError):
    """Raised for unusable artifacts or mismatched reports."""


@dataclass(frozen=True)
class RunRecord:
    """One scored instance. `error` is non-empty when the LLM call failed;
    such records are excluded from metrics but kept for the failure count.
    The fields are a record line's JSON schema."""

    patient_id: str
    ranked: tuple[str, ...]
    target_overall: tuple[str, ...]
    target_novel: tuple[str, ...]
    history_ccs: tuple[str, ...]
    prompt: str = ""
    raw_text: str = ""
    candidates: tuple[str, ...] = ()
    matched_count: int = 0
    error: str = ""


@dataclass(frozen=True)
class RunArtifact:
    """The records of one run; the other fields are its meta line's schema."""

    records: tuple[RunRecord, ...]
    fingerprint: str = ""
    seed: int = 0
    task: str = "overall"

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.task not in TASKS:
            raise EvalError(f"unknown task {self.task!r}")

    @property
    def failed(self) -> tuple[RunRecord, ...]:
        return tuple(r for r in self.records if r.error)


def save_run(artifact: RunArtifact, path: str | Path) -> None:
    """JSONL: a meta line, then one record per line sorted by patient_id."""
    with open(path, "w", encoding="utf-8") as fh:
        meta = {
            "kind": "meta",
            "fingerprint": artifact.fingerprint,
            "seed": artifact.seed,
            "task": artifact.task,
        }
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for rec in sorted(artifact.records, key=lambda r: r.patient_id):
            # A shallow copy: `asdict` deep-copies every string, 4x the time.
            obj = {f.name: getattr(rec, f.name) for f in fields(rec)}
            fh.write(json.dumps({"kind": "record", **obj}, sort_keys=True) + "\n")


def load_run(path: str | Path) -> RunArtifact:
    """Read a run artifact; a malformed line, a value of the wrong JSON type
    or an unknown key included, raises EvalError with its line number."""
    records: list[RunRecord] = []
    meta: RunArtifact | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if isinstance(obj, dict) and obj.pop("kind", None) == "meta":
                    meta = from_json(RunArtifact, obj, "meta", root=True, records=())
                else:
                    records.append(from_json(RunRecord, obj, "record", root=True))
            except InputError as exc:
                raise EvalError(f"line {lineno}: {exc}") from None
            except ValueError as exc:  # json.JSONDecodeError, or too many digits
                raise EvalError(f"line {lineno}: invalid JSON ({exc})") from None
    if meta is None:
        raise EvalError("run file has no meta line")
    return replace(meta, records=tuple(records))


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------


def visit_precision_at_k(
    ranked: Sequence[str], target: Iterable[str], k: int
) -> float:
    """|top-k ∩ target| / min(k, |target|)."""
    target_set = set(target)
    if k < 1:
        raise EvalError("k must be at least 1")
    if not target_set:
        raise EvalError("empty target; exclude the instance upstream")
    hits = sum(1 for c in ranked[:k] if c in target_set)
    return hits / min(k, len(target_set))


def novel_filter(ranked: Sequence[str], history_ccs: Iterable[str]) -> list[str]:
    """Drop history codes from a ranking, preserving order."""
    history = set(history_ccs)
    return [c for c in ranked if c not in history]


def _task_view(rec: RunRecord, task: str) -> tuple[list[str], set[str]] | None:
    """Ranking and target for one record under a task; None if ineligible."""
    if rec.error:
        return None
    if task == "overall":
        return list(rec.ranked), set(rec.target_overall)
    if not rec.target_novel:
        return None
    return novel_filter(rec.ranked, rec.history_ccs), set(rec.target_novel)


def code_accuracy_at_k(records: Sequence[RunRecord], k: int, task: str) -> float:
    """Pooled hit ratio: Σ|top-k ∩ Y| / Σ|Y| over eligible records."""
    if task not in TASKS:
        raise EvalError(f"unknown task {task!r}")
    hit_total, target_total = 0, 0
    for rec in records:
        view = _task_view(rec, task)
        if view is None:
            continue
        ranked, target = view
        hit_total += sum(1 for c in ranked[:k] if c in target)
        target_total += len(target)
    if target_total == 0:
        raise EvalError(f"no eligible records for task {task!r}")
    return hit_total / target_total


def _mean_visit_precision(records: Sequence[RunRecord], k: int, task: str) -> float | None:
    values = []
    for rec in records:
        view = _task_view(rec, task)
        if view is None:
            continue
        ranked, target = view
        values.append(visit_precision_at_k(ranked, target, k))
    if not values:
        return None
    return sum(values) / len(values)


@dataclass(frozen=True)
class MetricsReport:
    """Per-task, per-k metric values plus eligibility counts. A value is
    None when no record was eligible for that task."""

    values: dict[str, dict[str, dict[int, float | None]]]
    n_instances: int
    n_failed: int
    n_novel_excluded: int
    ks: dict[str, tuple[int, ...]] = field(default_factory=lambda: dict(DEFAULT_KS))

    def get(self, task: str, metric: str, k: int) -> float | None:
        return self.values[task][metric][k]


def evaluate_run(
    artifact: RunArtifact, ks: Mapping[str, Sequence[int]] | None = None
) -> MetricsReport:
    """Score both tasks at the configured k values (defaults mirror the
    usual report columns: overall {10, 20}, novel {5, 10})."""
    grid = {t: tuple(v) for t, v in (DEFAULT_KS if ks is None else ks).items()}
    for task in grid:
        if task not in TASKS:
            raise EvalError(f"unknown task {task!r}")
    records = artifact.records
    values: dict[str, dict[str, dict[int, float | None]]] = {}
    for task, task_ks in grid.items():
        per_metric: dict[str, dict[int, float | None]] = {m: {} for m in METRICS}
        for k in task_ks:
            per_metric["visit_precision"][k] = _mean_visit_precision(records, k, task)
            try:
                per_metric["code_accuracy"][k] = code_accuracy_at_k(records, k, task)
            except EvalError:
                per_metric["code_accuracy"][k] = None
        values[task] = per_metric
    n_failed = len(artifact.failed)
    n_novel_excluded = sum(
        1 for r in records if not r.error and not r.target_novel
    )
    return MetricsReport(
        values=values,
        n_instances=len(records),
        n_failed=n_failed,
        n_novel_excluded=n_novel_excluded,
        ks=grid,
    )


def save_metrics(report: MetricsReport, path: str | Path) -> None:
    doc = {
        "values": {
            task: {m: {str(k): v for k, v in per_k.items()}
                   for m, per_k in metrics.items()}
            for task, metrics in report.values.items()
        },
        "ks": {task: list(v) for task, v in report.ks.items()},
        "n_instances": report.n_instances,
        "n_failed": report.n_failed,
        "n_novel_excluded": report.n_novel_excluded,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2))
        fh.write("\n")


def metrics_table(report: MetricsReport) -> str:
    """Fixed-width text rendering of a report."""
    lines = [
        f"instances={report.n_instances} failed={report.n_failed} "
        f"novel_excluded={report.n_novel_excluded}",
        f"{'task':<9} {'metric':<16} {'k':>4} {'value':>8}",
    ]
    for task in sorted(report.values):
        for metric in METRICS:
            for k in report.ks[task]:
                v = report.values[task][metric][k]
                shown = "n/a" if v is None else f"{v:.4f}"
                lines.append(f"{task:<9} {metric:<16} {k:>4} {shown:>8}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ablation comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonTable:
    """Labeled metric rows in configuration order, with deltas between
    consecutive rows (None on the first row)."""

    columns: tuple[str, ...]
    rows: tuple[dict, ...]

    def text(self) -> str:
        widths = [max(len(c), 9) for c in self.columns]
        header = f"{'config':<16} " + " ".join(
            f"{c:>{w}}" for c, w in zip(self.columns, widths)
        )
        lines = [header]
        for row in self.rows:
            cells = []
            for col, w in zip(self.columns, widths):
                v = row["values"][col]
                delta = row["deltas"][col] if row["deltas"] is not None else None
                text = "n/a" if v is None else f"{v:.4f}"
                if delta is not None:
                    text += f"({delta:+.3f})"
                cells.append(f"{text:>{w}}")
            lines.append(f"{row['label']:<16} " + " ".join(cells))
        return "\n".join(lines)


def compare_ablations(
    reports: Sequence[tuple[str, MetricsReport]]
) -> ComparisonTable:
    """Line up reports (in the given configuration order) over a shared
    k-grid and compute consecutive deltas."""
    if not reports:
        raise EvalError("no reports to compare")
    grid = reports[0][1].ks
    for label, rep in reports[1:]:
        if rep.ks != grid:
            raise EvalError(f"report {label!r} has a different k-grid")
    columns = tuple(
        f"{task}.{metric}@{k}"
        for task in sorted(grid)
        for metric in METRICS
        for k in grid[task]
    )
    rows = []
    prev: dict[str, float | None] | None = None
    for label, rep in reports:
        vals = {
            f"{task}.{metric}@{k}": rep.values[task][metric][k]
            for task in sorted(grid)
            for metric in METRICS
            for k in grid[task]
        }
        deltas = None
        if prev is not None:
            deltas = {
                col: (None if vals[col] is None or prev[col] is None
                      else vals[col] - prev[col])
                for col in columns
            }
        rows.append({"label": label, "values": vals, "deltas": deltas})
        prev = vals
    return ComparisonTable(columns=columns, rows=tuple(rows))


def save_comparison(table: ComparisonTable, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["config"] + list(table.columns)
            + [f"delta_{c}" for c in table.columns]
        )
        for row in table.rows:
            cells: list[object] = [row["label"]]
            cells += [row["values"][c] for c in table.columns]
            if row["deltas"] is None:
                cells += ["" for _ in table.columns]
            else:
                cells += [row["deltas"][c] for c in table.columns]
            writer.writerow(cells)
