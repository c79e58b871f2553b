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
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import InputError, field, fields, from_json, record, replace
from .config import DEFAULT_KS, TASKS


class EvalError(InputError):
    """Raised for unusable artifacts or mismatched reports."""


@record(frozen=True)
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


@record(frozen=True)
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


_View = tuple[Sequence[str], set[str]]


def _views(records: Sequence[RunRecord], task: str) -> list[_View]:
    """What each record scores under `task`, in record order. A failed
    record scores nothing; under the novel task neither does a record with
    no novel target, and the ranking drops history codes."""
    if task not in TASKS:
        raise EvalError(f"unknown task {task!r}")
    if task == "overall":
        return [(r.ranked, set(r.target_overall)) for r in records if not r.error]
    return [(novel_filter(r.ranked, r.history_ccs), set(r.target_novel))
            for r in records if not r.error and r.target_novel]


def _mean_precision(views: Sequence[_View], k: int) -> float | None:
    """Mean of visit_precision_at_k over the views, summed in record order;
    None when no record qualifies."""
    if not views:
        return None
    return sum(visit_precision_at_k(ranked, target, k) for ranked, target in views) / len(views)


def _pooled_accuracy(views: Sequence[_View], k: int) -> float | None:
    """Pooled hit ratio Σ|top-k ∩ Y| / Σ|Y| over the views; None when no
    record qualifies."""
    total = sum(len(target) for _, target in views)
    if not total:
        return None
    return sum(c in target for ranked, target in views for c in ranked[:k]) / total


# Each metric's formula over one task's views, in table order.
METRICS = {"visit_precision": _mean_precision, "code_accuracy": _pooled_accuracy}


@record(frozen=True)
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

    def cells(self) -> Iterator[tuple[tuple[str, str, int], float | None]]:
        """(task, metric, k) and its value in table order: tasks sorted, then
        METRICS, then the grid's ks."""
        for task in sorted(self.ks):
            for metric in METRICS:
                for k in self.ks[task]:
                    yield (task, metric, k), self.values[task][metric][k]


def evaluate_run(
    artifact: RunArtifact, ks: Mapping[str, Sequence[int]] | None = None
) -> MetricsReport:
    """Score both tasks at the configured k values (defaults mirror the
    usual report columns: overall {10, 20}, novel {5, 10})."""
    grid = {t: tuple(v) for t, v in (DEFAULT_KS if ks is None else ks).items()}
    # Every task's views, for the exclusion count; an unknown grid task raises.
    views = {t: _views(artifact.records, t) for t in dict.fromkeys((*grid, *TASKS))}
    return MetricsReport(
        values={task: {metric: {k: formula(views[task], k) for k in task_ks}
                       for metric, formula in METRICS.items()}
                for task, task_ks in grid.items()},
        n_instances=len(artifact.records),
        n_failed=len(artifact.failed),
        n_novel_excluded=len(views["overall"]) - len(views["novel"]),
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
    for (task, metric, k), v in report.cells():
        shown = "n/a" if v is None else f"{v:.4f}"
        lines.append(f"{task:<9} {metric:<16} {k:>4} {shown:>8}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ablation comparison
# ---------------------------------------------------------------------------


@record(frozen=True)
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
    rows: list[dict] = []
    for label, rep in reports:
        if rep.ks != reports[0][1].ks:
            raise EvalError(f"report {label!r} has a different k-grid")
        vals = {f"{task}.{metric}@{k}": v for (task, metric, k), v in rep.cells()}
        prev = rows[-1]["values"] if rows else None
        deltas = None if prev is None else {
            col: None if v is None or prev[col] is None else v - prev[col]
            for col, v in vals.items()}
        rows.append({"label": label, "values": vals, "deltas": deltas})
    return ComparisonTable(columns=tuple(rows[0]["values"]), rows=tuple(rows))


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
