"""Pipeline command line: synthesize records, train a scorer, mine
co-occurrence evidence, run the LLM re-ranker, and score the results.

All subcommands share one output directory; each writes its resolved
configuration next to its artifacts so a run can be reproduced from the
directory alone. Exit codes: 0 on success, 1 only when more than 10% of
prediction instances failed, 2 for any config, flag or input file the
pipeline cannot read or parse (non-UTF-8 bytes and bad prompt-template
placeholders included).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from . import InputError, record
from .config import ABLATION_STAGES, BACKEND_KINDS, DEFAULT_K, LLM_BACKENDS, STRATEGIES, \
    TASKS, ConfigError, RunConfig, config_from_dict, fingerprint_config

EXIT_OK = 0
EXIT_RUN_FAILURES = 1
EXIT_BAD_CONFIG = 2

# A run aborts with exit 1 above this per-instance failure fraction.
MAX_FAILURE_RATE = 0.10

SWEEP_KS = (10, 25, 50, 100)

DATASET_FILE = "dataset.jsonl"
ONTOLOGY_FILE = "ontology.csv"
MODEL_FILE = "model.json"
LOSSES_FILE = "losses.csv"
RANKINGS_FILE = "rankings.jsonl"
COOC_FILE = "cooc.csv"
RUN_FILE = "run.jsonl"
METRICS_FILE = "metrics.json"
ABLATION_FILE = "ablation.csv"
SWEEP_FILE = "sweep_k.csv"
LLM_CACHE_DIR = "llm_cache"

# ---------------------------------------------------------------------------
# Imports on first use
# ---------------------------------------------------------------------------

# The names this module uses from each module, imported only when a command
# runs that module (`_bind`) or another module looks one of them up here
# (PEP 562 `__getattr__`), so only `train` loads the scorers and numpy. A
# name already bound is kept: a wrapper set on this module before `main`
# runs is the function that runs. No command calls `load_model`; it is
# listed because perfbench/spans.py wraps `dxrank.cli.load_model`.
_IMPORTS: dict[str, tuple[str, ...]] = {
    ".ehr": ("Dataset", "Ontology", "PredictionInstance", "build_instances", "load_dataset",
             "load_ontology", "load_rankings", "save_dataset", "save_ontology",
             "save_rankings", "split_patients"),
    ".synth": ("generate_synthetic",),
    ".backends": ("VolumeConfig", "load_model", "save_model", "train"),
    ".evidence": ("CandidateSet", "CooccurrenceMatrix", "build_cooccurrence",
                  "eligible_candidates", "extract_relations", "load_cooccurrence",
                  "prioritize_history", "propagate_to_icd", "save_cooccurrence",
                  "select_candidates"),
    ".prompting": ("SC_SAMPLES", "SC_TEMPERATURE", "AblationFlags", "PromptOptions",
                   "compose_prompt", "load_template", "parse_answer", "sc_aggregate"),
    ".llm": ("LlmClient", "LlmError"),
    ".metrics": ("MetricsReport", "RunArtifact", "RunRecord", "compare_ablations",
                 "evaluate_run", "load_run", "metrics_table", "save_comparison",
                 "save_metrics", "save_run"),
}
_MODULE_OF = {name: module for module, names in _IMPORTS.items() for name in names}
# What `predict`, `ablate` and `sweep-k` run: every module but the generator
# and the scorers, which only `train` loads: they read `train`'s rankings.
_PREDICTION = tuple(module for module in _IMPORTS if module not in (".synth", ".backends"))


def _bind(*modules: str) -> None:
    """Import `modules` and bind each one's names that are not bound yet."""
    namespace = globals()
    for module in modules:
        loaded = importlib.import_module(module, __package__)
        for name in _IMPORTS[module]:
            namespace.setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# The config paths `--seed` sets; every other config flag's argparse dest
# is the one path it sets.
SEED_PATHS = ("seed", "synth.seed", "train.seed", "llm.seed")


def _apply_overrides(doc: dict, args: argparse.Namespace) -> None:
    """Fold CLI flags into the config document before validation, so the
    resolved config on disk reflects exactly what ran."""
    for dest, value in vars(args).items():
        if value is None or dest.split(".")[0] not in RunConfig.__record_fields__:
            continue
        for path in SEED_PATHS if dest == "seed" else (dest,):
            *sections, key = path.split(".")
            target = doc
            for name in sections:
                target = target.setdefault(name, {})
            # A section that is not an object is rejected when the config
            # is built.
            if isinstance(target, dict):
                target[key] = value


def load_config(args: argparse.Namespace) -> RunConfig:
    doc: dict = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
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


def _load(loader, path: Path, source: str, *args):
    """Read one input file. A missing, unreadable or malformed file is an
    input error that names it; `source` says where the file comes from."""
    try:
        return loader(path, *args)
    except FileNotFoundError as exc:  # `path` or an input it is checked against
        raise ConfigError(f"missing {exc.filename} ({source})") from None
    except (InputError, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_data(out_dir: Path) -> tuple[Dataset, Ontology]:
    ontology = _load(load_ontology, out_dir / ONTOLOGY_FILE, "run `dxrank synth` first")
    dataset = _load(load_dataset, out_dir / DATASET_FILE, "run `dxrank synth` first",
                    ontology)
    return dataset, ontology


def _split_meta(cfg: RunConfig, out_dir: Path, *files: str) -> dict:
    """The split an artifact follows from: seed, ratios, sha256 of `dataset.jsonl` and `files`."""
    return {"seed": cfg.seed, "split_ratios": list(cfg.split_ratios),
            "sha256": {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                       for name in (DATASET_FILE, *files)}}


def _rankings_meta(cfg: RunConfig, out_dir: Path) -> dict:
    """What the scorer's rankings of the test split follow from: the bytes
    of the model, dataset and ontology files, the split and the backend."""
    return {"backend": cfg.backend, **_split_meta(cfg, out_dir, MODEL_FILE, ONTOLOGY_FILE)}


def predict_record(
    instance: PredictionInstance,
    shortlist: CandidateSet | None,
    groups: tuple[HistoryGroup, ...] | None,
    cooc: CooccurrenceMatrix | None,
    ontology: Ontology,
    flags: AblationFlags,
    options: PromptOptions,
    client: LlmClient,
    k: int,
) -> RunRecord:
    """Run the evidence pipeline and the LLM re-ranker for one instance,
    given its scorer-derived evidence if the stage reads any: `shortlist`,
    its candidates at the command's largest K, and `groups`, its history's
    ICD groups in ranking order. `flags` say which evidence the stage uses; the
    prompt carries exactly that. No eligible candidate means an empty
    ranking and no LLM call.

    LLM failures become an error record; any other exception is a bug and
    propagates.
    """
    history = instance.history_ccs

    # Selection is one stable order cut at K, so the top k of the largest
    # K's candidates are the top k.
    candidates = (CandidateSet(shortlist.codes[:k], shortlist.mode) if flags.candidates
                  else eligible_candidates(ontology.ccs_codes, options.task, history))

    # Evidence the stage does not use stays None and out of the prompt:
    # without prioritization the prompt lists raw history, not ICD groups.
    relations = None
    if flags.relations:
        if cooc is None:
            raise ConfigError("relational stage requires co-occurrence counts")
        relations = extract_relations(history, candidates, cooc)

    prompt = compose_prompt(instance, groups if flags.prioritization else None, relations,
                            candidates, ontology, options)
    base = dict(
        patient_id=instance.patient_id,
        prompt=prompt,
        candidates=candidates.codes,
        target_overall=tuple(sorted(instance.target_overall)),
        target_novel=tuple(sorted(instance.target_novel)),
        history_ccs=tuple(sorted(instance.history_ccs)),
    )
    if not candidates.codes:
        return RunRecord(raw_text="", ranked=(), **base)
    # A single answer is a self-consistency vote of one.
    sampled = options.strategy == "sc"
    tags = [f"sc{i}" for i in range(SC_SAMPLES)] if sampled else [""]
    try:
        pred = sc_aggregate([
            parse_answer(client.ask(prompt, SC_TEMPERATURE if sampled else None, tag).text,
                         candidates, ontology.ccs_names)
            for tag in tags])
    except LlmError as exc:
        return RunRecord(raw_text="", ranked=(), error=str(exc), **base)
    return RunRecord(
        raw_text=pred.raw_text, ranked=pred.ranked,
        matched_count=pred.matched_count, **base,
    )


@record(frozen=True)
class PredictionInputs:
    """What every prediction run of one command reads: loaded and derived
    once, then shared by every stage and K. `shortlists[i]` holds the
    scorer's top codes of `instances[i]` at the command's largest K, and
    `groups[i]` its history's ICD groups in ranking order; each is None
    when no stage uses it."""

    ontology: Ontology
    cooc: CooccurrenceMatrix | None
    instances: tuple[PredictionInstance, ...]
    shortlists: tuple[CandidateSet | None, ...]
    groups: tuple[tuple[HistoryGroup, ...] | None, ...]
    options: PromptOptions


def load_prediction_inputs(
    cfg: RunConfig, out_dir: Path, variants: Sequence[tuple[str, int]]
) -> PredictionInputs:
    """Load the artifacts that runs of the (stage, K) `variants` need: the
    scorer's rankings only if one of them reads them, co-occurrence counts
    only if one uses relational evidence, each written for this split and
    the current bytes of its inputs. The scorer-derived evidence is built
    here, once per instance."""
    dataset, ontology = _load_data(out_dir)
    _, _, test_ds = split_patients(dataset, cfg.split_ratios, cfg.seed)
    instances = tuple(build_instances(test_ds))
    if not instances:
        raise ConfigError("test split yields no prediction instances")
    flags = [AblationFlags.for_stage(stage) for stage, _ in variants]
    selects = any(f.candidates for f in flags)
    prioritizes = any(f.prioritization for f in flags)
    shortlists = groups = (None,) * len(instances)
    # Only candidate selection and history order read the scorer, from `train`'s
    # rankings; their meta is computed in `_load`, which reports a bad `model.json`.
    if selects or prioritizes:
        rankings = _load(lambda path: load_rankings(path, _rankings_meta(cfg, out_dir),
                                                    instances, ontology.ccs_codes),
                         out_dir / RANKINGS_FILE, "run `dxrank train` first")
        if selects:
            k_max = max(k for f, (_, k) in zip(flags, variants) if f.candidates)
            shortlists = tuple(select_candidates(ranking, k_max, cfg.task, instance.history_ccs)
                               for instance, ranking in zip(instances, rankings))
        if prioritizes:
            groups = tuple(propagate_to_icd(prioritize_history(instance.history_ccs, ranking),
                                            instance.input_visits, ontology)
                           for instance, ranking in zip(instances, rankings))
    template_text = (_load(load_template, Path(cfg.template_path), "prompt template")
                     if cfg.template_path else load_template())
    options = PromptOptions(task=cfg.task, strategy=cfg.strategy,
                            template_text=template_text, max_chars=cfg.max_prompt_chars)
    cooc = None
    if any(f.relations for f in flags):
        cooc = _load(load_cooccurrence, out_dir / COOC_FILE, "run `dxrank cooc` first",
                     ontology.ccs_codes, _split_meta(cfg, out_dir))
    return PredictionInputs(
        ontology=ontology, cooc=cooc, instances=instances, shortlists=shortlists,
        groups=groups, options=options,
    )


def run_predictions(
    cfg: RunConfig,
    out_dir: Path,
    inputs: PredictionInputs,
    client: LlmClient,
    variants: Sequence[tuple[str, int, str]],
) -> list[RunArtifact]:
    """Predict over the test split once per (stage, K, run file) variant and
    write each variant's JSONL artifact; return the artifacts in order.

    With the remote LLM, every (variant, instance) job of the command runs
    on one pool of twice as many workers as the client has request slots:
    while up to half of them sleep out a retry backoff or build and parse
    prompts, the rest keep every slot busy, and a run's last requests share
    the slots with the next run's first ones instead of waiting alone. The
    mocks do no I/O, and threads would only contend for the interpreter
    lock, so they run in order on the calling thread. Each artifact is
    sorted by patient id, so output bytes do not depend on completion
    order, and every run file is written once all runs have finished.
    """
    n = len(inputs.instances)
    jobs = [(AblationFlags.for_stage(stage), k, i)
            for stage, k, _ in variants for i in range(n)]

    def one(job: tuple[AblationFlags, int, int]) -> RunRecord:
        flags, k, i = job
        return predict_record(inputs.instances[i], inputs.shortlists[i], inputs.groups[i],
                              inputs.cooc, inputs.ontology, flags, inputs.options, client, k)

    if client.remote:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=2 * cfg.llm.max_in_flight) as pool:
            records = list(pool.map(one, jobs))
    else:
        records = list(map(one, jobs))

    artifacts = []
    for j, (_, _, run_name) in enumerate(variants):
        artifact = RunArtifact(
            records=tuple(sorted(records[j * n:(j + 1) * n], key=lambda r: r.patient_id)),
            fingerprint=fingerprint_config(cfg),
            seed=cfg.seed,
            task=cfg.task,
        )
        save_run(artifact, out_dir / run_name)
        artifacts.append(artifact)
    return artifacts


def _failure_exit(artifact: RunArtifact) -> int:
    failed = len(artifact.failed)
    if failed > MAX_FAILURE_RATE * len(artifact.records):
        return EXIT_RUN_FAILURES
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    _bind(".ehr", ".synth")
    dataset, ontology = generate_synthetic(cfg.synth)
    save_ontology(ontology, out_dir / ONTOLOGY_FILE)
    save_dataset(dataset, out_dir / DATASET_FILE)
    print(f"wrote {len(dataset)} patients, {len(ontology.ccs_names)} CCS codes")
    return EXIT_OK


def cmd_train(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    _bind(".ehr", ".backends")
    dataset, ontology = _load_data(out_dir)
    train_ds, _, test_ds = split_patients(dataset, cfg.split_ratios, cfg.seed)
    model = train(
        cfg.backend, train_ds, ontology, cfg.train, VolumeConfig(beta=cfg.beta)
    )
    save_model(model, out_dir / MODEL_FILE)
    with open(out_dir / LOSSES_FILE, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(model.losses):
            fh.write(f"{epoch},{loss:.10f}\n")
    # The prediction commands read the test split's rankings from here, so
    # they need neither the model nor numpy.
    instances = build_instances(test_ds)
    save_rankings(out_dir / RANKINGS_FILE, _rankings_meta(cfg, out_dir), instances,
                  model.rankings(instances))
    print(
        f"trained {cfg.backend} on {len(train_ds)} patients: "
        f"loss {model.losses[0]:.4f} -> {model.losses[-1]:.4f}"
    )
    return EXIT_OK


def cmd_cooc(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    _bind(".ehr", ".evidence")
    dataset, ontology = _load_data(out_dir)
    train_ds, _, _ = split_patients(dataset, cfg.split_ratios, cfg.seed)
    matrix = build_cooccurrence(train_ds, ontology.ccs_codes)
    pairs = save_cooccurrence(matrix, out_dir / COOC_FILE, _split_meta(cfg, out_dir))
    print(f"counted {pairs} code pairs over {matrix.n_patients} patients")
    return EXIT_OK


def _run_variants(cfg: RunConfig, out_dir: Path, variants: Sequence[tuple[str, int, str]]
                  ) -> tuple[list[RunArtifact], LlmClient]:
    """Run each (stage, K, run file) on inputs loaded once and one LLM client
    with its completion cache; return the artifacts and the closed client."""
    _bind(*_PREDICTION)
    inputs = load_prediction_inputs(cfg, out_dir, [(stage, k) for stage, k, _ in variants])
    with LlmClient(cfg.llm) as client:
        client.cache_in(out_dir / LLM_CACHE_DIR)
        artifacts = run_predictions(cfg, out_dir, inputs, client, variants)
    return artifacts, client


def cmd_predict(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    [artifact], client = _run_variants(cfg, out_dir, [(cfg.stage, cfg.k_candidates, RUN_FILE)])
    counts = f"{len(artifact.failed)} failed"
    if client.remote:
        counts += f", {client.from_cache} from cache"
    print(f"wrote {len(artifact.records)} records ({counts})")
    return _failure_exit(artifact)


def cmd_eval(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    _bind(".metrics")
    run_path = out_dir / (args.run or RUN_FILE)
    artifact = _load(load_run, run_path, "run `dxrank predict` first")
    report = evaluate_run(artifact, cfg.eval_ks)
    save_metrics(report, out_dir / METRICS_FILE)
    print(metrics_table(report))
    return EXIT_OK


def _compare(cfg: RunConfig, out_dir: Path, table_file: str,
             variants: Sequence[tuple[str, str, int, str]]) -> int:
    """Run each (label, stage, K, file tag) variant, then score and save each
    run and write the comparison table."""
    artifacts, client = _run_variants(cfg, out_dir, [
        (stage, k, f"run_{tag}.jsonl") for _, stage, k, tag in variants])
    reports: list[tuple[str, MetricsReport]] = []
    for (label, _, _, tag), artifact in zip(variants, artifacts):
        report = evaluate_run(artifact, cfg.eval_ks)
        save_metrics(report, out_dir / f"metrics_{tag}.json")
        reports.append((label, report))
    table = compare_ablations(reports)
    save_comparison(table, out_dir / table_file)
    print(table.text())
    if client.remote:
        print(f"llm: {client.fetched} fetched, {client.from_cache} from cache")
    return max(map(_failure_exit, artifacts))


def cmd_ablate(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    return _compare(cfg, out_dir, ABLATION_FILE, [
        (stage, stage, cfg.k_candidates, stage) for stage in ABLATION_STAGES])


def cmd_sweep_k(cfg: RunConfig, out_dir: Path, args: argparse.Namespace) -> int:
    return _compare(cfg, out_dir, SWEEP_FILE, [
        (f"K={k}" + (" (default)" if k == DEFAULT_K else ""), cfg.stage, k, f"k{k}")
        for k in SWEEP_KS])


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="override every seed in the config")
    common.add_argument("--out", default="runs", help="artifact directory")
    # Flags of every command that runs the re-ranker.
    ranking = argparse.ArgumentParser(add_help=False, parents=[common])
    ranking.add_argument("--task", choices=TASKS)
    ranking.add_argument("--llm-backend", dest="llm.backend", choices=LLM_BACKENDS)

    parser = argparse.ArgumentParser(
        prog="dxrank",
        description="Evidence-grounded diagnosis re-ranking pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset and ontology")
    p.add_argument("--n-patients", dest="synth.n_patients", type=int)
    p.add_argument("--n-ccs", dest="synth.n_ccs", type=int)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train", parents=[common],
                       help="train a scorer on the train split")
    p.add_argument("--backend", choices=BACKEND_KINDS)
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.add_argument("--d", dest="train.d", type=int)
    p.add_argument("--learning-rate", dest="train.learning_rate", type=float)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("cooc", parents=[common],
                       help="build co-occurrence counts on the train split")
    p.set_defaults(handler=cmd_cooc)

    p = sub.add_parser("predict", parents=[ranking],
                       help="run the re-ranking pipeline on the test split")
    p.add_argument("--k", dest="k_candidates", type=int, help="candidate list size")
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--stage", choices=ABLATION_STAGES)
    p.add_argument("--template", dest="template_path", help="prompt template file")
    p.add_argument("--max-prompt-chars", type=int)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("eval", parents=[common], help="score a finished run")
    p.add_argument("--run", help=f"run file name (default {RUN_FILE})")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("ablate", parents=[ranking],
                       help="run and score every ablation stage")
    p.add_argument("--k", dest="k_candidates", type=int)
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("sweep-k", parents=[ranking],
                       help="sweep the candidate list size")
    p.add_argument("--stage", choices=ABLATION_STAGES)
    p.set_defaults(handler=cmd_sweep_k)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use --out {out_dir}: {exc}") from None
        code = args.handler(cfg, out_dir, args)
        write_resolved_config(cfg, out_dir, args.command)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def process_main(argv: Sequence[str] | None = None) -> NoReturn:
    """Run one command as its own process and exit with its code; this is
    what `python -m dxrank.cli` and the `dxrank` script run.

    The process ends with the command, so the cyclic collector stays off,
    and the heap is frozen before exit so that the interpreter's final
    collection does not scan memory the operating system reclaims anyway.
    `main` leaves the collector as it finds it, for callers that go on.
    """
    gc.disable()
    code = main(argv)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    process_main()
