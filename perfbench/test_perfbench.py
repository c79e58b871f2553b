"""Tests of the benchmark itself, at a toy shape. Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench
"""
from __future__ import annotations

import json

import pytest
import requests

import harness
from dxrank.llm import LlmClient, LlmConfig, request_body
from stub_llm import FAULT_EVERY, StubLlm

TOY_CONFIG = {
    "task": "novel",
    "k_candidates": 6,
    "split_ratios": [0.7, 0.1, 0.2],
    "eval_ks": {"overall": [3], "novel": [3, 10]},
    "synth": {"n_patients": 40, "n_ccs": 12},
    "train": {"epochs": 2, "d": 4},
    "llm": {"backend": "mock_evidence", "max_in_flight": 2},
}
TOY_REMOTE = {"config": {**TOY_CONFIG, "llm": {"backend": "remote", "max_in_flight": 2}}}


def _prompt(n: int) -> str:
    return f'Case {n}\nCandidate CCS Codes (Novel Only)\n"Alpha", "Beta", "Gamma"\n'


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("toy")
    config, chains = harness.run_workload({"config": TOY_CONFIG}, 3, 0, False, work)
    return work, config, chains


def test_benchmark_json_workloads_are_defined():
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    workloads = harness.load_workloads()
    for entry in doc["workloads"]:
        assert entry["why"] == workloads[entry["name"]]["why"]


def test_every_metric_printed_with_its_unit(toy_run, capsys):
    work, config, chains = toy_run
    assert len(chains) == harness.MIN_REPS
    assert all(c.complete for c in chains), [c.problems for c in chains]
    assert [c.seed for c in chains] == [harness.REFERENCE_SEED, 3001, 3002]
    assert all(len(c.seconds[stage]) == harness.REPEATS.get(stage, 1)
               for c in chains for stage in harness.STAGES)
    result = harness.report("toy", 3, False, config, chains, work)
    lines = capsys.readouterr().out.splitlines()
    specs = harness.load_metric_specs()["end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        assert any(line.split()[0] == spec["name"] and line.split()[2] == spec["unit"]
                   for line in lines), spec["name"]
    assert (work / "result.json").exists()


def test_traced_run_reports_every_layer_and_matches_untraced(tmp_path, capsys):
    config, chains = harness.run_workload(TOY_REMOTE, 3, 0, True, tmp_path)
    reference = harness.REFERENCE_SEED
    assert [(c.traced, c.seed) for c in chains] == [(False, reference), (True, reference)]
    assert all(c.complete for c in chains), [c.problems for c in chains]
    assert chains[0].hashes == chains[1].hashes
    result = harness.report("toy-remote", 3, True, config, chains, tmp_path)
    out = capsys.readouterr().out
    specs = harness.load_metric_specs()["per_layer"]
    assert result["correct"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        assert f"{spec['name']} " in out
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["retain.retain_forward.calls"] == 0
    assert values["boxes.box_forward.calls"] > values["boxes.box_backward.calls"] > 0
    assert values["llm.complete.calls"] == values["stub.requests"] - values["stub.status_503"]
    assert values["stub.max_in_flight"] <= 2
    assert values["prompting.parse_coverage"] == pytest.approx(1.0)


def test_stub_fault_selection_is_deterministic():
    cfg = LlmConfig(backend="remote", endpoint_url="http://unused", model_name="m")
    bodies = [request_body(_prompt(n), cfg) for n in range(2 * FAULT_EVERY + 5)]

    def statuses() -> list[int]:
        with StubLlm(7, 2) as stub:
            url = stub.url + "/chat/completions"
            got = [requests.post(url, data=b, timeout=5).status_code for b in bodies]
            retried = requests.post(url, data=bodies[FAULT_EVERY - 1], timeout=5).status_code
            stub.begin_stage()
            next_stage = [requests.post(url, data=b, timeout=5).status_code
                          for b in bodies]
            counts = stub.counts()
        assert retried == 200 and next_stage == got
        assert counts["stub.connections"] == counts["stub.requests"] == 2 * len(bodies) + 1
        assert counts["stub.status_503"] == 2 * got.count(503)
        return got

    first = statuses()
    assert first == statuses()
    assert [n for n, s in enumerate(first, 1) if s != 200] == [FAULT_EVERY, 2 * FAULT_EVERY]


def test_stub_answers_like_the_in_process_mock():
    prompt = _prompt(1)
    with StubLlm(5, 1) as stub:
        remote = LlmClient(LlmConfig(backend="remote", endpoint_url=stub.url, seed=5))
        text = remote.complete(prompt).text
    assert text == LlmClient(LlmConfig(backend="mock_evidence", seed=5)).complete(prompt).text


@pytest.mark.parametrize("cut", ["last_line", "mid_line"])
def test_truncated_run_fails_the_output_check(toy_run, cut):
    work, config, chains = toy_run
    out = work / f"chain{len(chains) - 1}"
    seed = chains[-1].seed
    n_instances = harness.count_test_instances(out, config["split_ratios"], seed)
    intact = harness.Chain(traced=False, seed=seed)
    harness.check_outputs(intact, out, n_instances, config["eval_ks"])
    assert not intact.problems and intact.failed == 0

    run = out / "run.jsonl"
    data = run.read_bytes()
    keep = data.rstrip(b"\n").rfind(b"\n") + 1 if cut == "last_line" else len(data) - 40
    run.write_bytes(data[:keep])
    try:
        broken = harness.Chain(traced=False, seed=seed)
        harness.check_outputs(broken, out, n_instances, config["eval_ks"])
    finally:
        run.write_bytes(data)
    assert broken.problems
    assert broken.failed == broken.attempted == n_instances * len(harness.RUN_FILES)
