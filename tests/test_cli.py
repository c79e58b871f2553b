from __future__ import annotations

import json
import threading

import pytest

import dxrank.cli as cli_module
from dxrank.cli import (
    ABLATION_FILE,
    COOC_FILE,
    DATASET_FILE,
    DEFAULT_K,
    EXIT_BAD_CONFIG,
    EXIT_OK,
    EXIT_RUN_FAILURES,
    LOSSES_FILE,
    METRICS_FILE,
    MODEL_FILE,
    ONTOLOGY_FILE,
    RUN_FILE,
    SWEEP_FILE,
    SWEEP_KS,
    ConfigError,
    RunConfig,
    config_from_dict,
    fingerprint_config,
    main,
)
from dxrank.ehr import build_instances, load_dataset, load_ontology, split_patients
from dxrank.evidence import load_cooccurrence
from dxrank.backends import TrainedModel
from dxrank.llm import LlmClient, LlmError, derive_seed, mock_evidence_aware
from dxrank.metrics import load_metrics, load_run

SMALL_CFG = {
    "seed": 0,
    "k_candidates": 5,
    "task": "novel",
    "synth": {"n_patients": 30, "n_ccs": 10, "seed": 0},
    "train": {"epochs": 2, "d": 4, "seed": 0},
    "llm": {"backend": "mock_echo"},
    "eval_ks": {"overall": [3, 5], "novel": [3, 5]},
}


def write_cfg(tmp_path, doc=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else SMALL_CFG))
    return path


def cli(command, cfg_path, out_dir, *extra):
    return main(
        [command, "--config", str(cfg_path), "--out", str(out_dir), *extra]
    )


def run_chain(tmp_path, out_name="runs", cfg_doc=None, seed_args=()):
    cfg_path = write_cfg(tmp_path, cfg_doc)
    out = tmp_path / out_name
    for command in ("synth", "train", "cooc", "predict", "eval"):
        code = cli(command, cfg_path, out, *seed_args)
        assert code == EXIT_OK, command
    return out


def count_calls(monkeypatch, *names):
    """Wrap each named function of dxrank.cli; the dict counts their calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        wrapped = counted(name, getattr(cli_module, name))
        monkeypatch.setattr(cli_module, name, wrapped)
    return calls


class TestConfigFromDict:
    def test_empty_doc_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg.backend == "box"
        assert cfg.k_candidates == DEFAULT_K
        assert cfg.task == "novel"
        assert cfg.split_ratios == (0.7, 0.1, 0.2)

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"speed": 3})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown synth keys"):
            config_from_dict({"synth": {"patients": 5}})
        with pytest.raises(ConfigError, match="unknown llm keys"):
            config_from_dict({"llm": {"model": "m"}})

    def test_bad_values_become_config_errors(self):
        with pytest.raises(ConfigError, match="backend"):
            config_from_dict({"backend": "mlp"})
        with pytest.raises(ConfigError, match="task"):
            config_from_dict({"task": "weekly"})
        with pytest.raises(ConfigError, match="split_ratios"):
            config_from_dict({"split_ratios": [0.5, 0.5]})
        with pytest.raises(ConfigError, match="eval_ks"):
            config_from_dict({"eval_ks": {"weekly": [5]}})
        with pytest.raises(ConfigError, match="llm"):
            config_from_dict({"llm": {"backend": "remote"}})

    def test_rules_parsed_from_json(self):
        cfg = config_from_dict(
            {
                "synth": {
                    "n_ccs": 10,
                    "rules": [
                        {"trigger": "CCS-001", "onset": "CCS-002", "q": 0.8}
                    ],
                }
            }
        )
        rule = cfg.synth.rules[0]
        assert (rule.trigger, rule.onset, rule.q) == ("CCS-001", "CCS-002", 0.8)

    def test_to_dict_round_trip(self):
        cfg = config_from_dict(SMALL_CFG)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_fingerprint_stable_and_sensitive(self):
        a = fingerprint_config(config_from_dict(SMALL_CFG))
        b = fingerprint_config(config_from_dict(json.loads(json.dumps(SMALL_CFG))))
        assert a == b
        assert len(a) == 16
        changed = dict(SMALL_CFG, seed=1)
        assert fingerprint_config(config_from_dict(changed)) != a

    def test_defaults_construct(self):
        assert RunConfig().stage == "relational"


class TestMainErrors:
    def test_missing_config_file(self, tmp_path):
        assert cli("synth", tmp_path / "nope.json", tmp_path / "runs") == (
            EXIT_BAD_CONFIG
        )

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert cli("synth", path, tmp_path / "runs") == EXIT_BAD_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"speed": 1})
        assert cli("synth", path, tmp_path / "runs") == EXIT_BAD_CONFIG
        assert "unknown config keys" in capsys.readouterr().err

    def test_predict_before_synth(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert cli("predict", path, tmp_path / "runs") == EXIT_BAD_CONFIG
        assert "dxrank synth" in capsys.readouterr().err

    def test_train_before_synth(self, tmp_path):
        path = write_cfg(tmp_path)
        assert cli("train", path, tmp_path / "runs") == EXIT_BAD_CONFIG

    def test_eval_missing_run_file(self, tmp_path):
        path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        assert cli("synth", path, out) == EXIT_OK
        assert cli("eval", path, out) == EXIT_BAD_CONFIG

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestInputErrors:
    """Bad config values and corrupt artifacts exit 2 with one line."""

    def _prepared(self, tmp_path, commands=("synth", "train", "cooc")):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in commands:
            assert cli(command, cfg_path, out) == EXIT_OK, command
        return cfg_path, out

    def test_split_ratios_must_sum_to_one(self, tmp_path, capsys):
        cfg_path, out = self._prepared(tmp_path, ("synth",))
        bad = write_cfg(tmp_path, dict(SMALL_CFG, split_ratios=[0.5, 0.5, 0.5]),
                        name="bad.json")
        assert cli("train", bad, out) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "split_ratios" in err and "sum to 1" in err
        assert not (out / MODEL_FILE).exists()

    def test_too_few_patients_to_split(self, tmp_path, capsys):
        doc = dict(SMALL_CFG, synth=dict(SMALL_CFG["synth"], n_patients=2))
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "runs"
        assert cli("synth", cfg_path, out) == EXIT_OK
        assert cli("train", cfg_path, out) == EXIT_BAD_CONFIG
        assert "cannot split 2 patients" in capsys.readouterr().err

    def test_nan_in_model_rejected(self, tmp_path, capsys):
        cfg_path, out = self._prepared(tmp_path)
        doc = json.loads((out / MODEL_FILE).read_text())
        doc["tensors"]["center"][0][0] = float("nan")
        (out / MODEL_FILE).write_text(json.dumps(doc))
        capsys.readouterr()
        for command in ("predict", "ablate", "sweep-k"):
            assert cli(command, cfg_path, out) == EXIT_BAD_CONFIG, command
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1, err
            assert MODEL_FILE in err and "non-finite" in err, err
        assert not (out / RUN_FILE).exists()

    def test_unknown_icd_in_dataset_rejected(self, tmp_path, capsys):
        cfg_path, out = self._prepared(tmp_path)
        with open(out / DATASET_FILE, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"patient_id": "zz", "visits": [
                {"day": 0, "icd": ["NOT-AN-ICD"]}]}) + "\n")
        capsys.readouterr()
        for command in ("train", "cooc", "predict"):
            assert cli(command, cfg_path, out) == EXIT_BAD_CONFIG, command
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1, err
            assert DATASET_FILE in err and "NOT-AN-ICD" in err, err

    def test_corrupt_cooc_rejected(self, tmp_path, capsys):
        cfg_path, out = self._prepared(tmp_path)
        (out / COOC_FILE).write_text("ccs_i,ccs_j,count\n")
        capsys.readouterr()
        assert cli("predict", cfg_path, out) == EXIT_BAD_CONFIG
        assert COOC_FILE in capsys.readouterr().err

    def test_corrupt_run_rejected_by_eval(self, tmp_path, capsys):
        cfg_path, out = self._prepared(tmp_path, ("synth",))
        (out / RUN_FILE).write_text("{not json\n")
        assert cli("eval", cfg_path, out) == EXIT_BAD_CONFIG
        assert RUN_FILE in capsys.readouterr().err

    def test_missing_template_rejected(self, tmp_path, capsys):
        cfg_path, out = self._prepared(tmp_path)
        missing = str(tmp_path / "no_template.txt")
        assert cli("predict", cfg_path, out, "--template", missing) == EXIT_BAD_CONFIG
        assert "template" in capsys.readouterr().err


class TestPipeline:
    def test_full_chain_artifacts(self, tmp_path):
        out = run_chain(tmp_path)
        for name in (
            DATASET_FILE, ONTOLOGY_FILE, MODEL_FILE, LOSSES_FILE,
            COOC_FILE, RUN_FILE, METRICS_FILE,
        ):
            assert (out / name).exists(), name
        for command in ("synth", "train", "cooc", "predict", "eval"):
            assert (out / f"config_{command}.json").exists(), command

    def test_losses_file_shape(self, tmp_path):
        out = run_chain(tmp_path)
        lines = (out / LOSSES_FILE).read_text().splitlines()
        assert lines[0] == "epoch,loss"
        # Pre-training loss plus one entry per epoch.
        assert len(lines) == 1 + SMALL_CFG["train"]["epochs"] + 1

    def test_run_matches_config_fingerprint(self, tmp_path):
        out = run_chain(tmp_path)
        artifact = load_run(out / RUN_FILE)
        resolved = json.loads((out / "config_predict.json").read_text())
        assert artifact.fingerprint == resolved["fingerprint"]
        assert artifact.task == "novel"

    def test_metrics_use_configured_ks(self, tmp_path):
        out = run_chain(tmp_path)
        report = load_metrics(out / METRICS_FILE)
        assert report.ks == {"overall": (3, 5), "novel": (3, 5)}
        assert report.n_instances > 0
        assert report.n_failed == 0

    def test_predictions_cover_test_split_only(self, tmp_path):
        out = run_chain(tmp_path)
        ontology = load_ontology(out / ONTOLOGY_FILE)
        dataset = load_dataset(out / DATASET_FILE, ontology)
        train_ds, _, test_ds = split_patients(
            dataset, (0.7, 0.1, 0.2), SMALL_CFG["seed"]
        )
        artifact = load_run(out / RUN_FILE)
        run_ids = {r.patient_id for r in artifact.records}
        test_ids = {i.patient_id for i in build_instances(test_ds)}
        assert run_ids == test_ids
        train_ids = {p.patient_id for p in train_ds.patients}
        assert not run_ids & train_ids

    def test_cooc_counts_train_split_only(self, tmp_path):
        out = run_chain(tmp_path)
        ontology = load_ontology(out / ONTOLOGY_FILE)
        dataset = load_dataset(out / DATASET_FILE, ontology)
        train_ds, _, _ = split_patients(dataset, (0.7, 0.1, 0.2), 0)
        matrix = load_cooccurrence(out / COOC_FILE)
        assert matrix.n_patients == len(train_ds.patients)

    def test_chain_is_reproducible(self, tmp_path):
        out_a = run_chain(tmp_path, "a")
        out_b = run_chain(tmp_path, "b")
        for name in (DATASET_FILE, MODEL_FILE, COOC_FILE, RUN_FILE,
                     METRICS_FILE):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_plain_strategy_needs_no_cooc(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        assert cli("synth", cfg_path, out) == EXIT_OK
        assert cli("train", cfg_path, out) == EXIT_OK
        assert not (out / COOC_FILE).exists()
        assert cli("predict", cfg_path, out, "--strategy", "plain") == EXIT_OK
        assert (out / RUN_FILE).exists()

    def test_overall_task_flag(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK
        assert cli("predict", cfg_path, out, "--task", "overall") == EXIT_OK
        assert load_run(out / RUN_FILE).task == "overall"


class TestSeedOverride:
    def test_seed_propagates_to_all_sections(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        assert cli("synth", cfg_path, out, "--seed", "7") == EXIT_OK
        resolved = json.loads((out / "config_synth.json").read_text())
        assert resolved["seed"] == 7
        assert resolved["synth"]["seed"] == 7
        assert resolved["train"]["seed"] == 7
        assert resolved["llm"]["seed"] == 7

    def test_seed_changes_dataset(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli("synth", cfg_path, out_a, "--seed", "1") == EXIT_OK
        assert cli("synth", cfg_path, out_b, "--seed", "2") == EXIT_OK
        assert (out_a / DATASET_FILE).read_bytes() != (
            out_b / DATASET_FILE
        ).read_bytes()


class TestFailureHandling:
    def test_llm_failures_recorded_and_exit_code(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK

        class DownClient:
            def __init__(self, cfg):
                pass

            def complete(self, prompt, temperature=None, sample_tag=""):
                raise LlmError("endpoint down")

        monkeypatch.setattr("dxrank.cli.LlmClient", DownClient)
        assert cli("predict", cfg_path, out) == EXIT_RUN_FAILURES
        artifact = load_run(out / RUN_FILE)
        assert len(artifact.failed) == len(artifact.records)
        assert "endpoint down" in artifact.failed[0].error


class TestAblate:
    def test_ablate_writes_all_stages(self, tmp_path):
        doc = dict(SMALL_CFG, llm={"backend": "mock_evidence"})
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK
        assert cli("ablate", cfg_path, out) == EXIT_OK
        stages = ("base", "candidate", "prioritization", "relational")
        for stage in stages:
            assert (out / f"run_{stage}.jsonl").exists(), stage
            assert (out / f"metrics_{stage}.json").exists(), stage
        lines = (out / ABLATION_FILE).read_text().splitlines()
        assert len(lines) == 1 + len(stages)
        labels = [ln.split(",")[0] for ln in lines[1:]]
        assert labels == list(stages)

    def test_ablate_loads_inputs_once(self, tmp_path, monkeypatch):
        doc = dict(SMALL_CFG, llm={"backend": "mock_evidence"})
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK
        calls = count_calls(monkeypatch, "load_model", "load_dataset",
                            "load_cooccurrence", "run_predictions")
        assert cli("ablate", cfg_path, out) == EXIT_OK
        assert calls == {"load_model": 1, "load_dataset": 1,
                         "load_cooccurrence": 1, "run_predictions": 4}

    def test_ablate_runs_match_predict(self, tmp_path):
        doc = dict(SMALL_CFG, llm={"backend": "mock_evidence"})
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc", "ablate"):
            assert cli(command, cfg_path, out) == EXIT_OK
        for stage in ("base", "candidate", "prioritization", "relational"):
            assert cli("predict", cfg_path, out, "--stage", stage) == EXIT_OK
            single = (out / RUN_FILE).read_bytes()
            ablated = (out / f"run_{stage}.jsonl").read_bytes()
            # The meta line carries the config fingerprint, which includes
            # the stage; every record line must match.
            assert single.splitlines()[1:] == ablated.splitlines()[1:], stage
        # The config's own stage (the default, relational) matches in full.
        assert single == ablated


    def test_ablate_scores_each_instance_once(self, tmp_path, monkeypatch):
        doc = dict(SMALL_CFG, llm={"backend": "mock_evidence"})
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK
        scored = []
        real = TrainedModel.logit_vector

        def counted(model, patient):
            scored.append(patient.patient_id)
            return real(model, patient)

        monkeypatch.setattr(TrainedModel, "logit_vector", counted)
        assert cli("ablate", cfg_path, out) == EXIT_OK
        records = load_run(out / "run_base.jsonl").records
        assert sorted(scored) == sorted(r.patient_id for r in records)


class TestSweepK:
    def test_sweep_rows_and_default_label(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK
        assert cli("sweep-k", cfg_path, out) == EXIT_OK
        lines = (out / SWEEP_FILE).read_text().splitlines()
        assert len(lines) == 1 + len(SWEEP_KS)
        labels = [ln.split(",")[0] for ln in lines[1:]]
        assert labels == ["K=10", "K=25", "K=50 (default)", "K=100"]
        for k in SWEEP_KS:
            assert (out / f"run_k{k}.jsonl").exists()
            assert (out / f"metrics_k{k}.json").exists()

    def test_sweep_runs_match_predict(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc", "sweep-k"):
            assert cli(command, cfg_path, out) == EXIT_OK
        assert cli("predict", cfg_path, out, "--k", "10") == EXIT_OK
        single = (out / RUN_FILE).read_bytes().splitlines()
        assert single[1:] == (out / "run_k10.jsonl").read_bytes().splitlines()[1:]
        calls = count_calls(monkeypatch, "load_model", "run_predictions")
        assert cli("sweep-k", cfg_path, out) == EXIT_OK
        assert calls == {"load_model": 1, "run_predictions": len(SWEEP_KS)}


def _stub_remote_client(cfg):
    """A remote client whose transport answers in process, as mock_evidence
    would, so the pooled remote path runs without a server."""

    def transport(url, body, headers):
        prompt = json.loads(body)["messages"][0]["content"]
        text = mock_evidence_aware(prompt, derive_seed(cfg.seed, prompt))
        return 200, json.dumps({"choices": [{"message": {"content": text}}]}).encode()

    return LlmClient(cfg, transport=transport)


class TestRunThreads:
    def _predict(self, tmp_path, monkeypatch, llm, name):
        """Run predict on a shared prepared directory; return the run.jsonl
        lines and the threads predict_record ran on."""
        out = tmp_path / "runs"
        cfg_path = write_cfg(tmp_path, dict(SMALL_CFG, llm=llm), f"{name}.json")
        if not (out / MODEL_FILE).exists():
            for command in ("synth", "train", "cooc"):
                assert cli(command, cfg_path, out) == EXIT_OK
        threads = []
        real = cli_module.predict_record

        def spy(*args, **kwargs):
            threads.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_module, "predict_record", spy)
        monkeypatch.setattr(cli_module, "LlmClient", _stub_remote_client)
        assert cli("predict", cfg_path, out) == EXIT_OK
        monkeypatch.undo()
        return (out / RUN_FILE).read_bytes().splitlines(), threads

    def test_mock_run_stays_on_the_calling_thread(self, tmp_path, monkeypatch):
        for backend in ("mock_echo", "mock_evidence"):
            _, threads = self._predict(
                tmp_path, monkeypatch, {"backend": backend, "max_in_flight": 4}, backend)
            assert threads and all(t is threading.main_thread() for t in threads)

    def test_run_does_not_depend_on_max_in_flight(self, tmp_path, monkeypatch):
        runs = {}
        for backend, cap in (("mock_evidence", 1), ("mock_evidence", 2), ("remote", 2)):
            llm = {"backend": backend, "max_in_flight": cap,
                   "endpoint_url": "http://127.0.0.1:9"}
            runs[backend, cap] = self._predict(tmp_path, monkeypatch, llm, f"{backend}{cap}")
        serial, _ = runs["mock_evidence", 1]
        # The meta line carries the config fingerprint, which includes the
        # LLM section; everything else must match byte for byte.
        for key, (lines, threads) in runs.items():
            assert lines[1:] == serial[1:], key
            meta = {**json.loads(lines[0]), "fingerprint": None}
            assert meta == {**json.loads(serial[0]), "fingerprint": None}, key
        _, pooled = runs["remote", 2]
        assert any(t is not threading.main_thread() for t in pooled)
