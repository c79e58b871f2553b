"""Pipeline command line: synthesize records, train a scorer, mine
co-occurrence evidence, run the LLM re-ranker, and score the results.

All subcommands share one output directory; each writes its resolved
configuration next to its artifacts so a run can be reproduced from the
directory alone. Exit codes: 0 on success, 1 when more than 10% of
prediction instances failed, 2 for invalid configuration or a missing or
corrupt input artifact.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .backends import BackendError, LogitVector, TrainConfig, load_model, \
    save_model, train
from .backends.boxes import VolumeConfig
from .ehr import Dataset, DatasetError, Ontology, OntologyError, \
    PredictionInstance, SplitError, build_instances, check_split_ratios, \
    load_dataset, load_ontology, save_dataset, save_ontology, split_patients
from .evidence import CandidateSet, CooccurrenceMatrix, EvidenceError, \
    RelationalEvidence, build_cooccurrence, extract_relations, \
    load_cooccurrence, prioritize_history, propagate_to_icd, \
    save_cooccurrence, select_candidates
from .llm import LlmClient, LlmConfig, LlmError
from .metrics import DEFAULT_KS, EvalError, MetricsReport, RunArtifact, \
    RunRecord, compare_ablations, evaluate_run, load_run, metrics_table, \
    save_comparison, save_metrics, save_run
from .prompting import ABLATION_STAGES, DEFAULT_MAX_PROMPT_CHARS, SC_SAMPLES, \
    SC_TEMPERATURE, STRATEGIES, TASKS, AblationFlags, PromptOptions, \
    compose_prompt, load_template, parse_answer, sc_aggregate
from .synth import ComorbidityRule, SyntheticConfig, generate_synthetic

EXIT_OK = 0
EXIT_RUN_FAILURES = 1
EXIT_BAD_CONFIG = 2

# A run aborts with exit 1 above this per-instance failure fraction.
MAX_FAILURE_RATE = 0.10

DEFAULT_K = 50
SWEEP_KS = (10, 25, 50, 100)

DATASET_FILE = "dataset.jsonl"
ONTOLOGY_FILE = "ontology.csv"
MODEL_FILE = "model.json"
LOSSES_FILE = "losses.csv"
COOC_FILE = "cooc.csv"
RUN_FILE = "run.jsonl"
METRICS_FILE = "metrics.json"
ABLATION_FILE = "ablation.csv"
SWEEP_FILE = "sweep_k.csv"


class ConfigError(ValueError):
    """Raised for malformed configs or missing input artifacts."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One config drives every subcommand; unused sections are ignored."""

    seed: int = 0
    split_ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    backend: str = "box"
    beta: float = 0.1
    k_candidates: int = DEFAULT_K
    task: str = "novel"
    strategy: str = "evidence"
    stage: str = "relational"
    max_prompt_chars: int = DEFAULT_MAX_PROMPT_CHARS
    template_path: str = ""
    synth: SyntheticConfig = field(default_factory=SyntheticConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    llm: LlmConfig = field(default_factory=LlmConfig)
    eval_ks: dict[str, tuple[int, ...]] = field(
        default_factory=lambda: {t: tuple(v) for t, v in DEFAULT_KS.items()}
    )

    def __post_init__(self):
        object.__setattr__(self, "split_ratios", tuple(self.split_ratios))
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.stage not in ABLATION_STAGES:
            raise ConfigError(f"unknown ablation stage {self.stage!r}")
        if self.backend not in ("box", "retain"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.k_candidates < 1:
            raise ConfigError("k_candidates must be at least 1")
        if self.max_prompt_chars < 1:
            raise ConfigError("max_prompt_chars must be at least 1")
        if len(self.split_ratios) != 3:
            raise ConfigError("split_ratios must be three numbers")
        try:
            check_split_ratios(self.split_ratios)
        except SplitError as exc:
            raise ConfigError(f"split_ratios: {exc}") from None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "split_ratios": list(self.split_ratios),
            "backend": self.backend,
            "beta": self.beta,
            "k_candidates": self.k_candidates,
            "task": self.task,
            "strategy": self.strategy,
            "stage": self.stage,
            "max_prompt_chars": self.max_prompt_chars,
            "template_path": self.template_path,
            "synth": {
                "n_patients": self.synth.n_patients,
                "n_ccs": self.synth.n_ccs,
                "icd_per_ccs": self.synth.icd_per_ccs,
                "chronic_rate": self.synth.chronic_rate,
                "rules": [
                    {"trigger": r.trigger, "onset": r.onset, "q": r.q}
                    for r in self.synth.rules
                ],
                "visits_range": list(self.synth.visits_range),
                "codes_per_visit_range": list(self.synth.codes_per_visit_range),
                "seed": self.synth.seed,
            },
            "train": {
                "epochs": self.train.epochs,
                "learning_rate": self.train.learning_rate,
                "batch_size": self.train.batch_size,
                "seed": self.train.seed,
                "d": self.train.d,
            },
            "llm": {
                "backend": self.llm.backend,
                "endpoint_url": self.llm.endpoint_url,
                "model_name": self.llm.model_name,
                "temperature": self.llm.temperature,
                "max_tokens": self.llm.max_tokens,
                "timeout_ms": self.llm.timeout_ms,
                "max_retries": self.llm.max_retries,
                "max_in_flight": self.llm.max_in_flight,
                "seed": self.llm.seed,
                "api_key_env": self.llm.api_key_env,
            },
            "eval_ks": {t: list(v) for t, v in sorted(self.eval_ks.items())},
        }


_TOP_KEYS = frozenset(
    (
        "seed", "split_ratios", "backend", "beta", "k_candidates", "task",
        "strategy", "stage", "max_prompt_chars", "template_path",
        "synth", "train", "llm", "eval_ks",
    )
)


def _sub_config(cls, doc: dict, label: str, allowed: Sequence[str]):
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
    try:
        return cls(**doc)
    except ValueError as exc:
        raise ConfigError(f"bad {label} section: {exc}") from None


def config_from_dict(doc: dict) -> RunConfig:
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {
        k: doc[k]
        for k in (
            "seed", "backend", "beta", "k_candidates", "task", "strategy",
            "stage", "max_prompt_chars", "template_path",
        )
        if k in doc
    }
    if "split_ratios" in doc:
        kwargs["split_ratios"] = tuple(doc["split_ratios"])
    if "synth" in doc:
        synth_doc = dict(doc["synth"])
        if "rules" in synth_doc:
            synth_doc["rules"] = tuple(
                ComorbidityRule(r["trigger"], r["onset"], r["q"])
                for r in synth_doc["rules"]
            )
        for key in ("visits_range", "codes_per_visit_range"):
            if key in synth_doc:
                synth_doc[key] = tuple(synth_doc[key])
        kwargs["synth"] = _sub_config(
            SyntheticConfig, synth_doc, "synth",
            ("n_patients", "n_ccs", "icd_per_ccs", "chronic_rate", "rules",
             "visits_range", "codes_per_visit_range", "seed"),
        )
    if "train" in doc:
        kwargs["train"] = _sub_config(
            TrainConfig, dict(doc["train"]), "train",
            ("epochs", "learning_rate", "batch_size", "seed", "d"),
        )
    if "llm" in doc:
        kwargs["llm"] = _sub_config(
            LlmConfig, dict(doc["llm"]), "llm",
            ("backend", "endpoint_url", "model_name", "temperature",
             "max_tokens", "timeout_ms", "max_retries", "max_in_flight",
             "seed", "api_key_env"),
        )
    if "eval_ks" in doc:
        ks = {t: tuple(int(k) for k in v) for t, v in doc["eval_ks"].items()}
        if set(ks) - set(TASKS):
            raise ConfigError(f"unknown eval_ks tasks: {sorted(set(ks) - set(TASKS))}")
        kwargs["eval_ks"] = ks
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def fingerprint_config(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _apply_overrides(doc: dict, args: argparse.Namespace) -> None:
    """Fold CLI flags into the config document before validation, so the
    resolved config on disk reflects exactly what ran."""
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
        doc.setdefault("synth", {})["seed"] = args.seed
        doc.setdefault("train", {})["seed"] = args.seed
        doc.setdefault("llm", {})["seed"] = args.seed
    direct = {
        "backend": "backend",
        "task": "task",
        "strategy": "strategy",
        "stage": "stage",
        "k": "k_candidates",
        "template": "template_path",
        "max_prompt_chars": "max_prompt_chars",
    }
    for attr, key in direct.items():
        value = getattr(args, attr, None)
        if value is not None:
            doc[key] = value
    if getattr(args, "n_patients", None) is not None:
        doc.setdefault("synth", {})["n_patients"] = args.n_patients
    if getattr(args, "n_ccs", None) is not None:
        doc.setdefault("synth", {})["n_ccs"] = args.n_ccs
    if getattr(args, "epochs", None) is not None:
        doc.setdefault("train", {})["epochs"] = args.epochs
    if getattr(args, "d", None) is not None:
        doc.setdefault("train", {})["d"] = args.d
    if getattr(args, "learning_rate", None) is not None:
        doc.setdefault("train", {})["learning_rate"] = args.learning_rate
    if getattr(args, "llm_backend", None) is not None:
        doc.setdefault("llm", {})["backend"] = args.llm_backend


def load_config(args: argparse.Namespace) -> RunConfig:
    doc: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
    _apply_overrides(doc, args)
    return config_from_dict(doc)


def write_resolved_config(cfg: RunConfig, out_dir: Path, command: str) -> None:
    doc = cfg.to_dict()
    doc["command"] = command
    doc["fingerprint"] = fingerprint_config(cfg)
    path = out_dir / f"config_{command}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise ConfigError(f"missing artifact {path} (run `dxrank {hint}` first)")
    return path


# What the artifact loaders raise for a file they cannot use.
_ARTIFACT_ERRORS = (DatasetError, OntologyError, BackendError, EvidenceError,
                    EvalError)


def _load(loader, path: Path, hint: str, *args):
    """Read one input artifact; a missing or corrupt file is an input error."""
    try:
        return loader(_require(path, hint), *args)
    except _ARTIFACT_ERRORS as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_data(out_dir: Path) -> tuple[Dataset, Ontology]:
    ontology = _load(load_ontology, out_dir / ONTOLOGY_FILE, "synth")
    dataset = _load(load_dataset, out_dir / DATASET_FILE, "synth", ontology)
    return dataset, ontology


def _splits(cfg: RunConfig, dataset: Dataset) -> tuple[Dataset, Dataset, Dataset]:
    try:
        return split_patients(dataset, cfg.split_ratios, cfg.seed)
    except SplitError as exc:
        raise ConfigError(str(exc)) from None


def _neutral_candidates(
    vocab: Sequence[str], mode: str, history: frozenset[str]
) -> CandidateSet:
    """Full-vocabulary candidate set for the no-candidate-selection stage:
    every eligible code at logit 0.0 in code order."""
    pool = sorted(c for c in vocab if mode == "overall" or c not in history)
    return CandidateSet(
        entries=tuple((c, 0.0) for c in pool), K=max(1, len(pool)), mode=mode
    )


def predict_record(
    instance: PredictionInstance,
    logits: LogitVector,
    cooc: CooccurrenceMatrix | None,
    ontology: Ontology,
    cfg: RunConfig,
    client: LlmClient,
    template_text: str,
    stage: str,
    k: int,
) -> RunRecord:
    """Run the evidence pipeline and the LLM re-ranker for one instance,
    given the scorer's logits for it.

    LLM failures become an error record; any other exception is a bug and
    propagates.
    """
    options = PromptOptions(
        task=cfg.task, strategy=cfg.strategy, flags=AblationFlags.for_stage(stage),
        template_text=template_text, max_chars=cfg.max_prompt_chars,
    )
    # The plain strategy disables every evidence mechanism regardless of stage.
    flags = options.effective_flags
    mode = "novel" if cfg.task == "novel" else "overall"
    history = instance.history_ccs

    if flags.candidates:
        candidates = select_candidates(logits, k, mode, history)
    else:
        candidates = _neutral_candidates(logits.vocab, mode, history)

    if flags.prioritization:
        ordered = prioritize_history(history, logits)
        prioritized = propagate_to_icd(ordered, instance.input_visits, ontology, logits)
    else:
        prioritized = propagate_to_icd(
            sorted(history), instance.input_visits, ontology
        )
    if flags.relations:
        if cooc is None:
            raise ConfigError("relational stage requires co-occurrence counts")
        relations = extract_relations(history, candidates, cooc)
    else:
        relations = RelationalEvidence(links=())

    prompt = compose_prompt(
        instance, prioritized, relations, candidates, ontology, options
    )
    names = {c: ontology.ccs_name(c) for c in candidates.codes}
    base = dict(
        patient_id=instance.patient_id,
        prompt=prompt,
        candidates=candidates.codes,
        target_overall=tuple(sorted(instance.target_overall)),
        target_novel=tuple(sorted(instance.target_novel)),
        history_ccs=tuple(sorted(instance.history_ccs)),
    )
    try:
        if cfg.strategy == "sc":
            parsed = [
                parse_answer(
                    client.complete(
                        prompt, temperature=SC_TEMPERATURE, sample_tag=f"sc{i}"
                    ).text,
                    candidates,
                    names,
                )
                for i in range(SC_SAMPLES)
            ]
            pred = sc_aggregate(parsed)
        else:
            pred = parse_answer(client.complete(prompt).text, candidates, names)
    except LlmError as exc:
        return RunRecord(raw_text="", ranked=(), error=str(exc), **base)
    return RunRecord(
        raw_text=pred.raw_text, ranked=pred.ranked,
        matched_count=pred.matched_count, **base,
    )


@dataclass(frozen=True)
class PredictionInputs:
    """What every prediction run of one command reads: loaded and scored
    once, then shared by every stage and K. `logits[i]` is the scorer's
    output for `instances[i]`."""

    ontology: Ontology
    cooc: CooccurrenceMatrix | None
    instances: tuple[PredictionInstance, ...]
    logits: tuple[LogitVector, ...]
    template_text: str


def load_prediction_inputs(
    cfg: RunConfig, out_dir: Path, stages: Sequence[str]
) -> PredictionInputs:
    """Load the artifacts that runs of `stages` need; co-occurrence counts
    only if one of them uses relational evidence."""
    dataset, ontology = _load_data(out_dir)
    model = _load(load_model, out_dir / MODEL_FILE, "train", ontology)
    cooc = None
    if cfg.strategy != "plain" and any(
        AblationFlags.for_stage(stage).relations for stage in stages
    ):
        cooc = _load(load_cooccurrence, out_dir / COOC_FILE, "cooc")
    _, _, test_ds = _splits(cfg, dataset)
    instances = tuple(build_instances(test_ds))
    if not instances:
        raise ConfigError("test split yields no prediction instances")
    try:
        template_text = load_template(cfg.template_path or None)
    except OSError as exc:
        raise ConfigError(f"cannot read prompt template: {exc}") from None
    return PredictionInputs(
        ontology=ontology, cooc=cooc, instances=instances,
        logits=tuple(model.logit_vector(inst) for inst in instances),
        template_text=template_text,
    )


def run_predictions(
    cfg: RunConfig,
    out_dir: Path,
    inputs: PredictionInputs,
    stage: str,
    k: int,
    run_name: str,
) -> RunArtifact:
    """Predict over the test split and write one JSONL artifact.

    With the remote LLM, instances run on a worker pool sized to its
    concurrency cap, so requests overlap. The mocks do no I/O, and threads
    would only contend for the interpreter lock, so they run in order on
    the calling thread. The artifact is sorted by patient id, so output
    bytes do not depend on completion order.
    """
    client = LlmClient(cfg.llm)

    def one(instance: PredictionInstance, logits: LogitVector) -> RunRecord:
        return predict_record(
            instance, logits, inputs.cooc, inputs.ontology, cfg, client,
            inputs.template_text, stage, k,
        )

    if cfg.llm.backend == "remote":
        with ThreadPoolExecutor(max_workers=cfg.llm.max_in_flight) as pool:
            records = list(pool.map(one, inputs.instances, inputs.logits))
    else:
        records = list(map(one, inputs.instances, inputs.logits))

    artifact = RunArtifact(
        records=tuple(sorted(records, key=lambda r: r.patient_id)),
        fingerprint=fingerprint_config(cfg),
        seed=cfg.seed,
        task=cfg.task,
    )
    save_run(artifact, out_dir / run_name)
    return artifact


def _failure_exit(artifact: RunArtifact) -> int:
    failed = len(artifact.failed)
    if failed > MAX_FAILURE_RATE * len(artifact.records):
        return EXIT_RUN_FAILURES
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    dataset, ontology = generate_synthetic(cfg.synth)
    save_ontology(ontology, out_dir / ONTOLOGY_FILE)
    save_dataset(dataset, out_dir / DATASET_FILE)
    write_resolved_config(cfg, out_dir, "synth")
    print(f"wrote {len(dataset)} patients, {len(ontology.ccs_names)} CCS codes")
    return EXIT_OK


def cmd_train(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    dataset, ontology = _load_data(out_dir)
    train_ds, _, _ = _splits(cfg, dataset)
    model = train(
        cfg.backend, train_ds, ontology, cfg.train, VolumeConfig(beta=cfg.beta)
    )
    save_model(model, out_dir / MODEL_FILE)
    with open(out_dir / LOSSES_FILE, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(model.losses):
            fh.write(f"{epoch},{loss:.10f}\n")
    write_resolved_config(cfg, out_dir, "train")
    print(
        f"trained {cfg.backend} on {len(train_ds)} patients: "
        f"loss {model.losses[0]:.4f} -> {model.losses[-1]:.4f}"
    )
    return EXIT_OK


def cmd_cooc(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    dataset, _ = _load_data(out_dir)
    train_ds, _, _ = _splits(cfg, dataset)
    matrix = build_cooccurrence(train_ds)
    save_cooccurrence(matrix, out_dir / COOC_FILE)
    write_resolved_config(cfg, out_dir, "cooc")
    print(f"counted {len(matrix.counts)} code pairs over {matrix.n_patients} patients")
    return EXIT_OK


def cmd_predict(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    inputs = load_prediction_inputs(cfg, out_dir, (cfg.stage,))
    artifact = run_predictions(
        cfg, out_dir, inputs, cfg.stage, cfg.k_candidates, RUN_FILE
    )
    write_resolved_config(cfg, out_dir, "predict")
    failed = len(artifact.failed)
    print(f"wrote {len(artifact.records)} records ({failed} failed)")
    return _failure_exit(artifact)


def cmd_eval(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    run_path = out_dir / (args.run or RUN_FILE)
    artifact = _load(load_run, run_path, "predict")
    report = evaluate_run(artifact, cfg.eval_ks)
    save_metrics(report, out_dir / METRICS_FILE)
    write_resolved_config(cfg, out_dir, "eval")
    print(metrics_table(report))
    return EXIT_OK


def cmd_ablate(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    inputs = load_prediction_inputs(cfg, out_dir, ABLATION_STAGES)
    worst = EXIT_OK
    reports: list[tuple[str, MetricsReport]] = []
    for stage in ABLATION_STAGES:
        artifact = run_predictions(
            cfg, out_dir, inputs, stage, cfg.k_candidates, f"run_{stage}.jsonl"
        )
        worst = max(worst, _failure_exit(artifact))
        report = evaluate_run(artifact, cfg.eval_ks)
        save_metrics(report, out_dir / f"metrics_{stage}.json")
        reports.append((stage, report))
    table = compare_ablations(reports)
    save_comparison(table, out_dir / ABLATION_FILE)
    write_resolved_config(cfg, out_dir, "ablate")
    print(table.text())
    return worst


def cmd_sweep_k(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    inputs = load_prediction_inputs(cfg, out_dir, (cfg.stage,))
    worst = EXIT_OK
    reports: list[tuple[str, MetricsReport]] = []
    for k in SWEEP_KS:
        artifact = run_predictions(
            cfg, out_dir, inputs, cfg.stage, k, f"run_k{k}.jsonl"
        )
        worst = max(worst, _failure_exit(artifact))
        report = evaluate_run(artifact, cfg.eval_ks)
        save_metrics(report, out_dir / f"metrics_k{k}.json")
        label = f"K={k}" + (" (default)" if k == DEFAULT_K else "")
        reports.append((label, report))
    table = compare_ablations(reports)
    save_comparison(table, out_dir / SWEEP_FILE)
    write_resolved_config(cfg, out_dir, "sweep-k")
    print(table.text())
    return worst


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="override every seed in the config")
    common.add_argument("--out", default="runs", help="artifact directory")

    parser = argparse.ArgumentParser(
        prog="dxrank",
        description="Evidence-grounded diagnosis re-ranking pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset and ontology")
    p.add_argument("--n-patients", type=int)
    p.add_argument("--n-ccs", type=int)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train", parents=[common],
                       help="train a scorer on the train split")
    p.add_argument("--backend", choices=("box", "retain"))
    p.add_argument("--epochs", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--learning-rate", type=float)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("cooc", parents=[common],
                       help="build co-occurrence counts on the train split")
    p.set_defaults(handler=cmd_cooc)

    p = sub.add_parser("predict", parents=[common],
                       help="run the re-ranking pipeline on the test split")
    p.add_argument("--k", type=int, help="candidate list size")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--stage", choices=ABLATION_STAGES)
    p.add_argument("--llm-backend", choices=("remote", "mock_echo", "mock_evidence"))
    p.add_argument("--template", help="prompt template file")
    p.add_argument("--max-prompt-chars", type=int)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("eval", parents=[common], help="score a finished run")
    p.add_argument("--run", help=f"run file name (default {RUN_FILE})")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("ablate", parents=[common],
                       help="run and score every ablation stage")
    p.add_argument("--k", type=int)
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--llm-backend", choices=("remote", "mock_echo", "mock_evidence"))
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("sweep-k", parents=[common],
                       help="sweep the candidate list size")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--stage", choices=ABLATION_STAGES)
    p.add_argument("--llm-backend", choices=("remote", "mock_echo", "mock_evidence"))
    p.set_defaults(handler=cmd_sweep_k)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.handler(cfg, out_dir, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
