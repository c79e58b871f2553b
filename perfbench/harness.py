"""One benchmark run of a dxrank workload.

A run repeats the CLI chain synth → train → cooc → predict → eval → ablate
→ sweep-k, each stage in its own `python -m dxrank.cli` process, until the
run's time is spent (at least MIN_REPS chains), and reports medians over
the chains. The first chain runs on REFERENCE_SEED whatever the run's
seed; its novel visit_precision@10 is the same on every run of the same
code, so it can carry a tight bound and catch a change of results. Chain
n > 0 runs on `seed * 1000 + n`, so a run's medians average over several
generated datasets as well as over repeated measurements; at these sizes
the work a dataset holds varies by up to 10% from seed to seed. A traced
run alternates an untraced chain with a chain whose stages run under
`spans.py`, both on the same seed: the per-layer metrics come from the
traced ones, and each pair must write byte-identical artifacts, which
shows both that the chain is deterministic and that the wrappers change
nothing.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dxrank.cli import SWEEP_KS
from dxrank.ehr import build_instances, load_dataset, load_ontology, split_patients
from dxrank.metrics import EvalError, evaluate_run, load_run
from dxrank.prompting import ABLATION_STAGES

import spans
from stub_llm import COUNT_NAMES, StubLlm

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"

STAGES = ("synth", "train", "cooc", "predict", "eval", "ablate", "sweep-k")
STAGE_METRICS = {"synth": "setup_s", "train": "train_s", "predict": "predict_s",
                 "ablate": "ablate_s", "sweep-k": "sweep_k_s"}
HASHED = ("dataset.jsonl", "model.json", "run.jsonl", "ablation.csv", "sweep_k.csv")
# Every file a prediction stage writes: predict, each ablation stage, each K.
RUN_FILES = ("run.jsonl", *(f"run_{s}.jsonl" for s in ABLATION_STAGES),
             *(f"run_k{k}.jsonl" for k in SWEEP_KS))

MIN_REPS = 3
# An untraced chain runs these stages more than once, back to back. Set-up
# is short and mostly interpreter start-up, and the time of a training
# process varies widely on a shared host, so their medians need more
# samples than a run holds chains.
REPEATS = {"synth": 3, "train": 2}
REFERENCE_SEED = 0
MIN_TRACED_REPS = 2  # one untraced chain and one traced chain on one seed
STAGE_TIMEOUT_S = 100  # a hung stage still ends a 55 s run within 180 s


def load_workloads() -> dict[str, dict]:
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_metric_specs() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"end_to_end": doc["end_to_end"], "per_layer": doc["per_layer"]}


@dataclass
class Chain:
    """What one run of the CLI chain measured and found."""

    traced: bool
    seed: int
    seconds: dict[str, list[float]] = field(default_factory=dict)  # every run of a stage
    pipeline_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    novel_p10: float | None = None
    hashes: dict[str, str] = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.seconds) == len(STAGES) and not self.problems


def run_process(argv: list[str], env: dict, log_path: Path) -> tuple[int, float, float]:
    """Run one stage; return its exit code, wall seconds and peak RSS in MB.

    The RSS is the child's own `ru_maxrss` from wait4, not the cumulative
    RUSAGE_CHILDREN figure, so each stage is measured on its own."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def _log_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def run_chain(cfg_path: Path, seed: int, out: Path, traced: bool,
              stub: StubLlm | None) -> Chain:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    chain = Chain(traced=traced, seed=seed)
    if stub is not None:
        stub.llm_seed = seed
        stub.reset_counts()
    runs = [stage for stage in STAGES
            for _ in range(1 if traced else REPEATS.get(stage, 1))]
    for stage in runs:
        if stub is not None:
            stub.begin_stage()
        cli_args = [stage, "--config", str(cfg_path), "--seed", str(seed),
                    "--out", str(out)]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "spans.py"),
                    str(out / f"spans_{stage}.jsonl"), *cli_args]
        else:
            argv = [sys.executable, "-m", "dxrank.cli", *cli_args]
        log = out / f"log_{stage}.txt"
        code, seconds, rss = run_process(argv, env, log)
        chain.seconds.setdefault(stage, []).append(seconds)
        chain.peak_rss_mb = max(chain.peak_rss_mb, rss)
        if code != 0:
            chain.problems.append(f"{stage} exited {code}: {_log_tail(log)}")
            break
    # One pass of the chain: the last run of each stage.
    chain.pipeline_s = sum(times[-1] for times in chain.seconds.values())
    if traced and chain.complete:
        chain.layers = spans.summarize(spans.read_spans(
            out / f"spans_{stage}.jsonl" for stage in STAGES))
        chain.layers.update(stub.counts() if stub else dict.fromkeys(COUNT_NAMES, 0))
    return chain


def count_test_instances(out: Path, split_ratios, seed: int) -> int:
    ontology = load_ontology(out / "ontology.csv")
    dataset = load_dataset(out / "dataset.jsonl", ontology)
    _, _, test = split_patients(dataset, tuple(split_ratios), seed)
    return len(build_instances(test))


def check_outputs(chain: Chain, out: Path, n_instances: int, eval_ks: dict) -> None:
    """The output checks of one chain. A chain that fails any of them counts
    every instance it attempted as failed."""
    problems = chain.problems
    chain.attempted = n_instances * len(RUN_FILES)
    failed = 0
    for name in RUN_FILES:
        try:
            artifact = load_run(out / name)
        except (OSError, EvalError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        failed += len(artifact.failed)
        if len(artifact.records) != n_instances:
            problems.append(f"{name}: {len(artifact.records)} records for "
                            f"{n_instances} test instances")
        for rec in artifact.records:
            if not rec.error and sorted(rec.ranked) != sorted(rec.candidates):
                problems.append(f"{name}: ranking of {rec.patient_id} is not a "
                                "permutation of its candidates")
                break
    for name, want in (("ablation.csv", len(ABLATION_STAGES)),
                       ("sweep_k.csv", len(SWEEP_KS))):
        try:
            rows = (out / name).read_text(encoding="utf-8").strip().splitlines()[1:]
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if len(rows) != want:
            problems.append(f"{name}: {len(rows)} rows, expected {want}")
    try:
        with open(out / "metrics.json", encoding="utf-8") as fh:
            reported = json.load(fh)["values"]["novel"]["visit_precision"]["10"]
        recomputed = evaluate_run(load_run(out / "run.jsonl"), eval_ks).get(
            "novel", "visit_precision", 10)
    except (OSError, KeyError, EvalError, json.JSONDecodeError) as exc:
        problems.append(f"novel visit_precision@10: {exc!r}")
    else:
        if reported is None or reported != recomputed:
            problems.append(f"metrics.json novel visit_precision@10 {reported} "
                            f"does not match {recomputed} recomputed from run.jsonl")
        chain.novel_p10 = reported
    chain.failed = chain.attempted if problems else failed


def record_artifacts(chain: Chain, out: Path) -> None:
    for name in HASHED:
        path = out / name
        chain.hashes[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                              if path.exists() else "missing")
    for stage in STAGES:
        with contextlib.suppress(OSError, KeyError, json.JSONDecodeError):
            doc = json.loads((out / f"config_{stage}.json").read_text(encoding="utf-8"))
            chain.fingerprints[stage] = doc["fingerprint"]


def environment() -> dict:
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = probe.stdout.strip() if probe.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def run_workload(workload: dict, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[dict, list[Chain]]:
    """Run chains in `work` until `seconds` is spent; return the resolved
    config and the chains."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = json.loads(json.dumps(workload["config"]))
    chains: list[Chain] = []
    with contextlib.ExitStack() as stack:
        stub = None
        if config["llm"]["backend"] == "remote":
            stub = stack.enter_context(StubLlm(seed, config["llm"]["max_in_flight"]))
            config["llm"]["endpoint_url"] = stub.url
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        start = time.perf_counter()
        while True:
            n = len(chains)
            traced = trace and n % 2 == 1
            pair = n // 2 if trace else n
            chain_seed = seed * 1000 + pair if pair else REFERENCE_SEED
            out = work / f"chain{n}"
            chain = run_chain(cfg_path, chain_seed, out, traced, stub)
            if chain.complete:
                n_instances = count_test_instances(out, config["split_ratios"], chain_seed)
                check_outputs(chain, out, n_instances, config["eval_ks"])
            else:  # its instance count is unknown: count one per run file
                chain.attempted = chain.failed = len(RUN_FILES)
            record_artifacts(chain, out)
            if traced and chain.complete and chain.hashes != chains[-1].hashes:
                chain.problems.append("traced artifacts differ from the untraced chain's")
                chain.failed = chain.attempted
            if chains:
                shutil.rmtree(work / f"chain{n - 1}", ignore_errors=True)
            chains.append(chain)
            if chain.problems:
                break
            step = 2 if trace else 1  # a traced run ends on a whole pair
            if len(chains) % step:
                continue
            elapsed = time.perf_counter() - start
            wanted = MIN_TRACED_REPS if trace else MIN_REPS
            per_chain = elapsed / len(chains)  # output checks included
            if len(chains) >= wanted and elapsed + step * per_chain > seconds:
                break
    return config, chains


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(chains: list[Chain]) -> dict[str, float]:
    plain = [c for c in chains if not c.traced and c.complete]
    metrics = {metric: _median(t for c in plain for t in c.seconds[stage])
               for stage, metric in STAGE_METRICS.items()}
    metrics["pipeline_s"] = _median(c.pipeline_s for c in plain)
    metrics["peak_rss_mb"] = _median(c.peak_rss_mb for c in plain)
    attempted = sum(c.attempted for c in chains)
    metrics["ok_frac"] = 1.0 - sum(c.failed for c in chains) / attempted
    metrics["novel_p10"] = chains[0].novel_p10
    return metrics


def per_layer(chains: list[Chain]) -> dict[str, float]:
    """Medians over the traced chains; the overhead compares each traced
    chain with the untraced chain before it, which ran on the same seed."""
    traced = chains[1::2]
    metrics = {key: _median(c.layers[key] for c in traced) for key in traced[0].layers}
    metrics["trace.overhead_frac"] = _median(
        t.pipeline_s / u.pipeline_s for u, t in zip(chains[::2], traced)) - 1.0
    return metrics


def report(name: str, seed: int, trace: bool, config: dict, chains: list[Chain],
           work: Path) -> dict:
    """Write result.json to `work`, print the human-readable summary and
    return the result object.

    `failed_frac` is printed for every run but is not a metric of
    BENCHMARK.json: it is 0 on every workload, and a bounded metric must
    not be, so `ok_frac` carries its bound."""
    specs = load_metric_specs()["per_layer" if trace else "end_to_end"]
    correct = all(c.complete for c in chains)
    attempted = sum(c.attempted for c in chains)
    failed = sum(c.failed for c in chains)
    values = (per_layer if trace else end_to_end)(chains) if correct else {}
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs if s["name"] in values}
    if correct and len(metrics) != len(specs):
        missing = sorted(s["name"] for s in specs if s["name"] not in values)
        raise RuntimeError(f"benchmark computed no value for {missing}")
    env = environment()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "trace": trace, "environment": env,
              "config": config, "chains": [vars(c) for c in chains], "result": result}
    (work / "result.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")
    print(f"== {name} seed={seed} trace={int(trace)}: {len(chains)} chains "
          f"in {sum(sum(t) for c in chains for t in c.seconds.values()):.1f} s")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for n, chain in enumerate(chains):
        fingerprints = ",".join(sorted(set(chain.fingerprints.values())))
        print(f"chain {n} seed={chain.seed} traced={int(chain.traced)} "
              f"config={fingerprints} sha256: "
              + " ".join(f"{k}={v[:12]}" for k, v in chain.hashes.items()))
    print(f"{'failed_frac':<34} {failed / max(attempted, 1):>14.6f} ratio "
          f"({failed} of {attempted} instances)")
    for metric, entry in metrics.items():
        print(f"{metric:<34} {entry['value']:>14.6f} {entry['unit']}")
    for n, chain in enumerate(chains):
        for problem in chain.problems:
            print(f"check failed in chain {n}: {problem}", file=sys.stderr)
    return result


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    workloads = load_workloads()
    names = list(workloads) if workload == "all" else [workload]
    unknown = [n for n in names if n not in workloads]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads)} or all", file=sys.stderr)
        return 2
    ok = True
    for name in names:
        work = WORK_DIR / name
        config, chains = run_workload(workloads[name], seed, seconds, trace, work)
        result = report(name, seed, trace, config, chains, work)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1
