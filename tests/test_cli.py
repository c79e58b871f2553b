from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dxrank.cli as cli_module
from dxrank import fields, is_record
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
    RANKINGS_FILE,
    RUN_FILE,
    SWEEP_FILE,
    SWEEP_KS,
    ConfigError,
    RunConfig,
    build_parser,
    config_from_dict,
    fingerprint_config,
    load_config,
    main,
)
from dxrank import InputError
from dxrank.ehr import DatasetError, OntologyError, SplitError, build_instances, \
    load_dataset, load_ontology, save_dataset, split_patients
from dxrank.evidence import EvidenceError, load_cooccurrence
from dxrank.backends import BACKENDS, BackendError, TrainedModel, load_model
from dxrank.llm import LLM_BACKENDS, LlmClient, LlmConfig, LlmError, derive_seed, \
    mock_evidence_aware
from dxrank.metrics import EvalError, load_run
from dxrank.prompting import ABLATION_STAGES, HISTORY_TITLE_PRIORITIZED, SC_SAMPLES, \
    AblationFlags, PromptError
from dxrank.synth import SyntheticConfigError

from .loopback import LoopbackLlm
from .reference import load_metrics

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


def split_record(out):
    """What `cooc` records of the SMALL_CFG split it counts in `out`."""
    return {"seed": 0, "split_ratios": [0.7, 0.1, 0.2], "sha256": {
        DATASET_FILE: hashlib.sha256((out / DATASET_FILE).read_bytes()).hexdigest()}}


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

    def test_default_fingerprint_pinned(self):
        assert fingerprint_config(RunConfig()) == "9cb5f6da71c1e534"

    def test_to_dict_keys_are_the_field_names(self):
        def check(obj, doc):
            if is_record(obj):
                assert set(doc) == {f.name for f in fields(obj)}, type(obj)
                for f in fields(obj):
                    check(getattr(obj, f.name), doc[f.name])
            elif isinstance(obj, tuple):
                for item, sub in zip(obj, doc, strict=True):
                    check(item, sub)

        cfg = config_from_dict({"synth": {"n_ccs": 10, "rules": [
            {"trigger": "CCS-001", "onset": "CCS-002", "q": 0.8}]}})
        check(cfg, cfg.to_dict())


def _choices(command, flag):
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return next(a.choices for a in commands[command]._actions
                if flag in a.option_strings)


class TestParserChoices:
    def test_backend_choices_are_the_registry(self):
        assert set(_choices("train", "--backend")) == set(BACKENDS)

    @pytest.mark.parametrize("command", ["predict", "ablate", "sweep-k"])
    def test_llm_backend_choices(self, command):
        assert set(_choices(command, "--llm-backend")) == set(LLM_BACKENDS)


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

    def test_plain_strategy_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli("predict", write_cfg(tmp_path), tmp_path / "runs", "--strategy", "plain")
        assert exc.value.code == EXIT_BAD_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and "'plain'" in errors[0], errors

    def test_plain_strategy_config_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, dict(SMALL_CFG, strategy="plain"))
        assert cli("synth", path, tmp_path / "runs") == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == "error: unknown strategy 'plain'\n"
        assert not (tmp_path / "runs" / "config_synth.json").exists()

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


def _edit_model(edit):
    def apply(out):
        doc = json.loads((out / MODEL_FILE).read_text())
        (out / MODEL_FILE).write_text(json.dumps(edit(doc)))
    return apply


def _add_line(name, make):
    """Append a line built from the file's last JSON line."""
    def apply(out):
        last = json.loads((out / name).read_text().splitlines()[-1])
        with open(out / name, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(make(dict(last, patient_id="zz"))) + "\n")
    return apply


def _set_visit(key, value):
    def make(rec):
        rec["visits"][0][key] = value
        return rec
    return make


def _append_ff(name):
    def apply(out):
        with open(out / name, "ab") as fh:
            fh.write(b"\xff")
    return apply


def _template(text):
    def apply(out):
        (out / "t.txt").write_text(text)
        return ["--template", str(out / "t.txt")]
    return apply


def _append_row(name, row):
    def apply(out):
        with open(out / name, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
    return apply


def _model_dir(out):
    (out / MODEL_FILE).unlink()
    (out / MODEL_FILE).mkdir()


def _config(make):
    def apply(out):
        make(out / "bad.json")
        return ["--config", str(out / "bad.json")]
    return apply


def _remote_endpoint(url):
    return _config(lambda path: path.write_text(json.dumps(
        dict(SMALL_CFG, llm={"backend": "remote", "endpoint_url": url}))))


def _out_file(out):
    (out / "taken").write_text("")
    return ["--out", str(out / "taken")]


# Malformed inputs: (command, edit of a synth/train/cooc/predict chain that
# may return extra flags, text the error line must contain).
MALFORMED_INPUTS = {
    "model-d-string": ("predict", _edit_model(lambda d: dict(d, d="x")), MODEL_FILE),
    "model-root-array": ("predict", _edit_model(lambda d: [1]), MODEL_FILE),
    "model-vocab-number": ("predict", _edit_model(lambda d: dict(d, vocab=5)),
                           MODEL_FILE),
    "model-epochs-string": ("predict", _edit_model(
        lambda d: dict(d, train_config={"epochs": "x"})), MODEL_FILE),
    "dataset-visits-number": ("predict", _add_line(
        DATASET_FILE, lambda r: dict(r, visits=5)), DATASET_FILE),
    "dataset-visit-number": ("predict", _add_line(
        DATASET_FILE, lambda r: dict(r, visits=[5])), DATASET_FILE),
    "dataset-day-string": ("predict", _add_line(
        DATASET_FILE, _set_visit("day", "x")), DATASET_FILE),
    "dataset-icd-number": ("predict", _add_line(
        DATASET_FILE, _set_visit("icd", 5)), DATASET_FILE),
    "run-ranked-number": ("eval", _add_line(RUN_FILE, lambda r: dict(r, ranked=5)),
                          RUN_FILE),
    "run-line-array": ("eval", _add_line(RUN_FILE, lambda r: [1, 2]), RUN_FILE),
    "template-unknown-name": ("predict", _template("{bogus}"), "template"),
    "template-positional": ("predict", _template("{0}"), "template"),
    "template-unclosed": ("predict", _template("{history_section"), "template"),
    "template-attribute": ("predict", _template("{history_section.title_}"), "template"),
    **{f"non-utf8-{name}": ("eval" if name == RUN_FILE else "predict",
                            _append_ff(name), name)
       for name in (MODEL_FILE, DATASET_FILE, ONTOLOGY_FILE, COOC_FILE, RUN_FILE)},
    "model-directory": ("predict", _model_dir, MODEL_FILE),
    "config-non-utf8": ("predict", _config(
        lambda path: path.write_bytes(b'{"seed": 0}\xff')), "bad.json"),
    "config-directory": ("predict", _config(lambda path: path.mkdir()), "bad.json"),
    "out-is-a-file": ("synth", _out_file, "--out"),
    "cooc-code-off-ontology": ("predict", _append_row(COOC_FILE, "CCS-001,CCS-999,1"),
                               "'CCS-999' is not in the vocabulary"),
    "cooc-descending-pair": ("predict", _append_row(COOC_FILE, "CCS-002,CCS-001,1"),
                             "has ccs_i > ccs_j"),
    **{f"endpoint-{name}": ("predict", _remote_endpoint(url), f"endpoint_url {url!r}")
       for name, url in (("bad-scheme", "htp://127.0.0.1:9"), ("no-scheme", "127.0.0.1:9"),
                         ("no-host", "http:///v1"), ("bad-port", "http://127.0.0.1:x"),
                         ("query", "http://h/v1?api-version=1"), ("fragment", "http://h/v1#x"),
                         ("empty-query", "http://h/v1?"))},
    "api-key-env-unset": ("predict", _config(lambda path: path.write_text(json.dumps(
        dict(SMALL_CFG, llm={"backend": "remote", "endpoint_url": "http://127.0.0.1:9",
                             "api_key_env": "DXRANK_UNSET_TEST_KEY"})))),
        "'DXRANK_UNSET_TEST_KEY'"),
    # A prediction command reads `model.json` only as the rankings' hash of
    # it, so any edit is a change since `train`.
    "model-seed-negative": ("predict", _edit_model(lambda d: dict(d, seed=-3)),
                            f"{MODEL_FILE} changed since `dxrank train` ran"),
    "cooc-pair-twice": ("predict", _append_row(COOC_FILE, "CCS-001,CCS-002,1"),
                        "co-occurrence pair (CCS-001, CCS-002) listed twice"),
    "ontology-icd-renamed": ("predict", _append_row(
        ONTOLOGY_FILE, "ICD-001.1,renamed,CCS-001,CCS-001"), "ICD 'ICD-001.1' renamed"),
}


class TestInputErrors:
    """Bad config values and corrupt artifacts exit 2 with one line."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("chain")
        cfg_path = write_cfg(tmp)
        for command in ("synth", "train", "cooc", "predict"):
            assert cli(command, cfg_path, tmp / "runs") == EXIT_OK, command
        return cfg_path, tmp / "runs"

    def test_module_errors_are_input_errors(self):
        for cls in (OntologyError, DatasetError, SplitError, BackendError,
                    EvidenceError, EvalError, PromptError, SyntheticConfigError,
                    ConfigError):
            assert issubclass(cls, InputError), cls
        # LLM failures become failed records, not input errors.
        assert not issubclass(LlmError, InputError)
        with pytest.raises(InputError, match="endpoint_url"):
            LlmConfig(backend="remote")

    @pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
    def test_malformed_input_exits_2(self, tmp_path, capsys, chain, case):
        command, edit, needle = MALFORMED_INPUTS[case]
        cfg_path, base = chain
        out = shutil.copytree(base, tmp_path / "runs")
        extra = edit(out) or []
        capsys.readouterr()
        assert cli(command, cfg_path, out, *extra) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert needle in err, err

    def _prepared(self, tmp_path, commands=("synth", "train", "cooc")):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in commands:
            assert cli(command, cfg_path, out) == EXIT_OK, command
        return cfg_path, out

    @pytest.mark.parametrize("command, doc", [
        ("synth", {"synth": {"rules": [{"trigger": "CCS001"}]}}),
        ("synth", {"eval_ks": {"novel": ["x"]}}),
        ("synth", {"eval_ks": {"novel": ["5"]}}),
        ("synth", {"k_candidates": "5"}),
        ("synth", {"synth": 5}),
        ("synth", {"train": {"epochs": "3"}}),
        ("synth", {"split_ratios": 5}),
        ("synth", {"synth": {"n_ccs": 0}}),
        ("train", {"beta": -1}),
        # Appended after the rows above so their parameter ids stay put.
        ("synth", {"eval_ks": {"overall": [0]}}),
        ("synth", {"eval_ks": {"novel": [-1]}}),
        ("synth", {"eval_ks": {"overall": [3, 3]}}),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, command, doc):
        _, out = self._prepared(tmp_path, ("synth",))
        bad = write_cfg(tmp_path, doc, name="bad.json")
        capsys.readouterr()
        assert cli(command, bad, out, "--seed", "1") == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    @pytest.mark.parametrize("command, doc, extra, needle", [
        ("synth", SMALL_CFG, ("--seed", "-1"), "error: synth: seed"),
        ("synth", {"synth": {"seed": -3}}, (), "error: synth: seed"),
        ("train", {"train": {"seed": -3}}, (), "error: train: seed"),
        ("cooc", {"seed": -3}, (), "error: seed"),
    ], ids=["flag", "synth", "train", "run"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, doc, extra, needle):
        """Every seed that seeds a numpy generator is checked when the
        config loads, not by numpy."""
        _, out = self._prepared(tmp_path, ("synth",))
        bad = write_cfg(tmp_path, doc, name="bad.json")
        capsys.readouterr()
        assert cli(command, bad, out, *extra) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(needle), err
        assert "must be non-negative" in err, err

    def test_backend_mismatch_rejected(self, tmp_path, capsys):
        cfg_path, out = self._prepared(tmp_path)
        bad = write_cfg(tmp_path, dict(SMALL_CFG, backend="retain"), name="bad.json")
        capsys.readouterr()
        for command in ("predict", "ablate", "sweep-k"):
            assert cli(command, bad, out) == EXIT_BAD_CONFIG, command
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1, err
            assert f"{RANKINGS_FILE}: written for backend 'box', not 'retain'" in err, err
        assert not (out / RUN_FILE).exists()
        assert not (out / "config_predict.json").exists()

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
            assert f"{MODEL_FILE} changed since `dxrank train` ran" in err, err
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

    @pytest.mark.parametrize("line, key, value, needle", [
        (2, "patient_id", 7, "patient_id must be str, got 7"),
        (2, "prompt", 3, "prompt must be str, got 3"),
        (2, "raw_text", None, "raw_text must be str, got None"),
        (2, "error", 5, "error must be str, got 5"),
        (2, "extra", 1, "unknown record keys: ['extra']"),
        (1, "fingerprint", ["x"], "fingerprint must be str, got ['x']"),
        (1, "extra", 1, "unknown meta keys: ['extra']"),
    ])
    def test_wrong_type_run_line_exits_2(self, tmp_path, capsys, chain, line, key,
                                         value, needle):
        cfg_path, base = chain
        out = shutil.copytree(base, tmp_path / "runs")
        lines = (out / RUN_FILE).read_text(encoding="utf-8").splitlines()
        lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), key: value})
        (out / RUN_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli("eval", cfg_path, out) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert f"{out / RUN_FILE}: line {line}: {needle}" in err, err

    @pytest.mark.parametrize("doc, needle", [
        ({"llm": {"backend": "remote", "endpoint_url": "http://127.0.0.1:9",
                  "temperature": float("nan")}}, "llm.temperature must be float, got nan"),
        ({"beta": float("inf")}, "beta must be float, got inf"),
        ({"train": {"learning_rate": float("nan")}},
         "train.learning_rate must be float, got nan"),
    ])
    def test_non_finite_config_number_exits_2(self, tmp_path, capsys, doc, needle):
        # json.dumps writes NaN and Infinity, which json.loads reads back.
        bad = write_cfg(tmp_path, {**SMALL_CFG, **doc}, name="bad.json")
        assert cli("synth", bad, tmp_path / "runs") == EXIT_BAD_CONFIG
        err = capsys.readouterr().err.strip()
        assert err == f"error: {needle}", err

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

    def test_empty_eval_ks_scores_nothing(self, tmp_path):
        out = run_chain(tmp_path, cfg_doc=dict(SMALL_CFG, eval_ks={}))
        assert json.loads((out / "config_eval.json").read_text())["eval_ks"] == {}
        metrics = json.loads((out / METRICS_FILE).read_text())
        assert metrics["ks"] == {} and metrics["values"] == {}

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
        matrix = load_cooccurrence(out / COOC_FILE, ontology.ccs_codes, split_record(out))
        assert matrix.n_patients == len(train_ds.patients)

    def test_chain_is_reproducible(self, tmp_path):
        out_a = run_chain(tmp_path, "a")
        out_b = run_chain(tmp_path, "b")
        for name in (DATASET_FILE, MODEL_FILE, COOC_FILE, RUN_FILE,
                     METRICS_FILE):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_dataset_line_order_changes_nothing(self, tmp_path):
        """Patients are ordered by id when a dataset is built, so the split,
        and every artifact after it, depends on the ids and not on the
        order of `dataset.jsonl`'s lines."""
        out_a = run_chain(tmp_path, "a")
        cfg_path, out_b = tmp_path / "cfg.json", tmp_path / "b"
        assert cli("synth", cfg_path, out_b) == EXIT_OK
        lines = (out_b / DATASET_FILE).read_text().splitlines(keepends=True)
        (out_b / DATASET_FILE).write_text("".join(reversed(lines)))
        for command in ("train", "cooc", "predict"):
            assert cli(command, cfg_path, out_b) == EXIT_OK, command
        for name in (MODEL_FILE, RUN_FILE):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        # Only `cooc.csv`'s split line, which hashes `dataset.jsonl`, differs.
        cooc_a, cooc_b = ((out / COOC_FILE).read_text().splitlines() for out in (out_a, out_b))
        assert cooc_a[1] != cooc_b[1] and cooc_a[:1] + cooc_a[2:] == cooc_b[:1] + cooc_b[2:]
        ontology = load_ontology(out_b / ONTOLOGY_FILE)
        save_dataset(load_dataset(out_b / DATASET_FILE, ontology), tmp_path / "saved.jsonl")
        assert (tmp_path / "saved.jsonl").read_bytes() == (out_a / DATASET_FILE).read_bytes()

    def test_base_stage_needs_no_cooc(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        assert cli("synth", cfg_path, out) == EXIT_OK
        assert cli("train", cfg_path, out) == EXIT_OK
        assert not (out / COOC_FILE).exists()
        assert cli("predict", cfg_path, out, "--stage", "base") == EXIT_OK
        assert (out / RUN_FILE).exists()

    def test_overall_task_flag(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK
        assert cli("predict", cfg_path, out, "--task", "overall") == EXIT_OK
        assert load_run(out / RUN_FILE).task == "overall"

    def test_counts_past_int64_load(self, tmp_path):
        """Co-occurrence counts are Python ints, so a count no int64 holds
        loads like any other."""
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK
        _, split, columns, first, *rest = (out / COOC_FILE).read_text().splitlines()
        first = first.rsplit(",", 1)[0] + f",{2**64}"
        (out / COOC_FILE).write_text("\n".join([f"# n_patients={2**70}", split, columns, first,
                                                *rest]) + "\n")
        assert cli("predict", cfg_path, out) == EXIT_OK
        ontology = load_ontology(out / ONTOLOGY_FILE)
        matrix = load_cooccurrence(out / COOC_FILE, ontology.ccs_codes, split_record(out))
        assert matrix.counts[0][0] == 2**64


class TestRankings:
    """`train` writes the scorer's rankings of the test split. The
    prediction commands read the scorer only from them, and refuse them,
    with exit 2 and one line, unless they were written for exactly this
    split and the current bytes of its inputs."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rankings")
        cfg_path = write_cfg(tmp, dict(SMALL_CFG, llm={"backend": "mock_evidence"}))
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, tmp / "runs") == EXIT_OK, command
        return cfg_path, tmp / "runs"

    def test_rankings_are_the_stable_argsort_of_the_logits(self, chain):
        _, out = chain
        ontology = load_ontology(out / ONTOLOGY_FILE)
        _, _, test_ds = split_patients(load_dataset(out / DATASET_FILE, ontology),
                                       (0.7, 0.1, 0.2), SMALL_CFG["seed"])
        instances = build_instances(test_ds)
        meta, *rows = map(json.loads, (out / RANKINGS_FILE).read_text().splitlines())
        assert meta == {"backend": "box", "seed": 0, "split_ratios": [0.7, 0.1, 0.2],
                        "sha256": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                                   for name in (DATASET_FILE, MODEL_FILE, ONTOLOGY_FILE)}}
        assert [row["patient_id"] for row in rows] == [i.patient_id for i in instances]
        logits = load_model(out / MODEL_FILE).logits(instances)
        for row, vector in zip(rows, logits):
            assert row["positions"] == np.argsort(-vector.scores, kind="stable").tolist()

    def test_base_stage_reads_neither_rankings_nor_model(self, chain, tmp_path):
        cfg_path, base = chain
        runs = []
        for name in ("kept", "deleted"):
            out = shutil.copytree(base, tmp_path / name)
            if name == "deleted":
                (out / RANKINGS_FILE).unlink()
                (out / MODEL_FILE).unlink()
            assert cli("predict", cfg_path, out, "--stage", "base") == EXIT_OK, name
            runs.append((out / RUN_FILE).read_bytes())
        assert runs[0] == runs[1]

    @staticmethod
    def _truncate_last_line(out):
        lines = (out / RANKINGS_FILE).read_text().splitlines(keepends=True)
        lines[-1] = lines[-1][:len(lines[-1]) // 2]
        (out / RANKINGS_FILE).write_text("".join(lines))

    @staticmethod
    def _repeat_a_position(out):
        meta, first, *rest = (out / RANKINGS_FILE).read_text().splitlines()
        row = json.loads(first)
        row["positions"][1] = row["positions"][0]
        (out / RANKINGS_FILE).write_text("\n".join([meta, json.dumps(row), *rest]) + "\n")

    @staticmethod
    def _move_a_visit(out):
        """One visit a day later: still a valid dataset, with the same split."""
        first, *rest = (out / DATASET_FILE).read_text().splitlines(keepends=True)
        record = json.loads(first)
        record["visits"][-1]["day"] += 1
        (out / DATASET_FILE).write_text(json.dumps(record, sort_keys=True) + "\n"
                                        + "".join(rest))

    # Each edit of a `train`ed directory, and what the one error line says.
    REFUSALS = {
        "removed": "missing {out}/rankings.jsonl (run `dxrank train` first)",
        "model-byte": "{out}/rankings.jsonl: model.json changed since `dxrank train` ran",
        "seed": "{out}/rankings.jsonl: written for seed 0, not 7",
        "truncated": "{out}/rankings.jsonl: malformed ranking line",
        "not-a-permutation":
            "{out}/rankings.jsonl: ranking is not a permutation of the vocabulary",
        "dataset-byte": "{out}/rankings.jsonl: dataset.jsonl changed since `dxrank train` ran",
    }

    @pytest.mark.parametrize("edit", list(REFUSALS))
    def test_other_inputs_are_refused(self, chain, tmp_path, capsys, edit):
        cfg_path, base = chain
        out = shutil.copytree(base, tmp_path / "runs")
        extra = []
        if edit == "removed":
            (out / RANKINGS_FILE).unlink()
        elif edit == "model-byte":
            # The first loss, which no logit depends on: the same scorer in
            # other bytes.
            text = (out / MODEL_FILE).read_text()
            assert '"losses":[0.' in text
            (out / MODEL_FILE).write_text(text.replace('"losses":[0.', '"losses":[1.'))
        elif edit == "seed":
            extra = ["--seed", "7"]
        elif edit == "truncated":
            self._truncate_last_line(out)
        elif edit == "not-a-permutation":
            self._repeat_a_position(out)
        else:
            self._move_a_visit(out)
        rankings = (out / RANKINGS_FILE).read_bytes() if edit != "removed" else None
        capsys.readouterr()
        assert cli("predict", cfg_path, out, *extra) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert self.REFUSALS[edit].format(out=out) in err, err
        assert not (out / RUN_FILE).exists()
        # Prediction commands never write the rankings.
        if rankings is not None:
            assert (out / RANKINGS_FILE).read_bytes() == rankings

    @pytest.mark.parametrize("command", ["predict", "ablate", "sweep-k"])
    def test_another_seed_is_refused(self, chain, tmp_path, capsys, command):
        """Seed 7's test split holds seed 0's training patients."""
        cfg_path, base = chain
        out = shutil.copytree(base, tmp_path / "runs")
        capsys.readouterr()
        assert cli(command, cfg_path, out, "--seed", "7") == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            f"error: {out / RANKINGS_FILE}: written for seed 0, not 7 "
            "(run `dxrank train` again)\n")

    def test_counts_of_another_split_are_refused_by_relational_stages(self, chain, tmp_path,
                                                                      capsys):
        cfg_path, base = chain
        out = shutil.copytree(base, tmp_path / "runs")
        assert cli("cooc", cfg_path, out, "--seed", "7") == EXIT_OK
        capsys.readouterr()
        for command, extra in [("predict", ["--stage", "relational"]), ("ablate", []),
                               ("sweep-k", [])]:
            assert cli(command, cfg_path, out, *extra) == EXIT_BAD_CONFIG, command
            assert capsys.readouterr().err == (
                f"error: {out / COOC_FILE}: written for seed 7, not 0 "
                "(run `dxrank cooc` again)\n"), command
        for stage in ("base", "candidate", "prioritization"):
            assert cli("predict", cfg_path, out, "--stage", stage) == EXIT_OK, stage

    def test_counts_without_a_split_line_are_refused(self, chain, tmp_path, capsys):
        cfg_path, base = chain
        out = shutil.copytree(base, tmp_path / "runs")
        count, _, *rows = (out / COOC_FILE).read_text().splitlines(keepends=True)
        (out / COOC_FILE).write_text("".join([count, *rows]))
        capsys.readouterr()
        assert cli("predict", cfg_path, out) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / COOC_FILE}: ") and err.count("\n") == 1, err
        assert "(run `dxrank cooc` again)" in err, err

    def test_train_with_an_empty_test_split(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, dict(SMALL_CFG, split_ratios=[0.9, 0.1, 0.0]))
        out = tmp_path / "runs"
        for command in ("synth", "train"):
            assert cli(command, cfg_path, out) == EXIT_OK, command
        assert len((out / RANKINGS_FILE).read_text().splitlines()) == 1
        capsys.readouterr()
        assert cli("predict", cfg_path, out, "--stage", "candidate") == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "error: test split yields no prediction instances\n")


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


# Every config flag: the text it is given, the value it parses to, and the
# config paths that must then hold that value. Each value differs from the
# default, so a flag that sets nothing fails.
FLAG_PATHS = {
    "--seed": ("7", 7, ("seed", "synth.seed", "train.seed", "llm.seed")),
    "--n-patients": ("11", 11, ("synth.n_patients",)),
    "--n-ccs": ("9", 9, ("synth.n_ccs",)),
    "--backend": ("retain", "retain", ("backend",)),
    "--epochs": ("3", 3, ("train.epochs",)),
    "--d": ("5", 5, ("train.d",)),
    "--learning-rate": ("0.5", 0.5, ("train.learning_rate",)),
    "--task": ("overall", "overall", ("task",)),
    "--llm-backend": ("mock_evidence", "mock_evidence", ("llm.backend",)),
    "--k": ("7", 7, ("k_candidates",)),
    "--strategy": ("sc", "sc", ("strategy",)),
    "--stage": ("base", "base", ("stage",)),
    "--template": ("t.txt", "t.txt", ("template_path",)),
    "--max-prompt-chars": ("999", 999, ("max_prompt_chars",)),
}
# Flags that name files or directories rather than set the config.
NOT_CONFIG_FLAGS = {"--config", "--out", "--run", "-h", "--help"}


def _subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestFlagPaths:
    @pytest.mark.parametrize("command", list(_subcommands()))
    def test_each_flag_sets_its_config_path(self, command):
        flags = {s for a in _subcommands()[command]._actions for s in a.option_strings}
        assert flags - NOT_CONFIG_FLAGS <= set(FLAG_PATHS), "flag without a FLAG_PATHS row"
        for flag in sorted(flags - NOT_CONFIG_FLAGS):
            text, value, paths = FLAG_PATHS[flag]
            cfg = load_config(build_parser().parse_args([command, flag, text]))
            for path in paths:
                assert functools.reduce(getattr, path.split("."), cfg) == value, \
                    (flag, path)


class TestFailureHandling:
    def test_llm_failures_recorded_and_exit_code(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK

        class DownClient(LlmClient):
            def complete(self, prompt, temperature=None, sample_tag=""):
                raise LlmError("endpoint down")

        monkeypatch.setattr("dxrank.cli.LlmClient", DownClient)
        assert cli("predict", cfg_path, out) == EXIT_RUN_FAILURES
        assert (out / "config_predict.json").exists()
        artifact = load_run(out / RUN_FILE)
        assert len(artifact.failed) == len(artifact.records)
        assert "endpoint down" in artifact.failed[0].error

    @pytest.mark.parametrize("backend", ["mock_evidence", "remote"])
    def test_instance_without_candidates_skips_the_llm(self, tmp_path, monkeypatch,
                                                       backend):
        # Three codes and long histories: most histories cover the whole
        # vocabulary, leaving no novel candidate.
        doc = dict(SMALL_CFG, synth={"n_patients": 60, "n_ccs": 3, "visits_range": [3, 5],
                                     "codes_per_visit_range": [2, 3]},
                   llm={"backend": backend, "endpoint_url": "http://127.0.0.1:9"})
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK

        def transport(url, body, headers):
            # An endpoint answers whatever it is sent.
            reply = {"choices": [{"message": {"content": "Answer: none"}}]}
            return 200, json.dumps(reply).encode()

        prompts = []
        real = LlmClient.complete

        def spy(client, prompt, *args, **kwargs):
            prompts.append(prompt)
            return real(client, prompt, *args, **kwargs)

        monkeypatch.setattr(cli_module, "LlmClient",
                            lambda cfg: LlmClient(cfg, transport=transport))
        monkeypatch.setattr(LlmClient, "complete", spy)
        assert cli("predict", cfg_path, out) == EXIT_OK
        records = load_run(out / RUN_FILE).records
        empty = [r for r in records if not r.candidates]
        assert empty and len(prompts) == len(records) - len(empty)
        for r in empty:
            assert (r.ranked, r.matched_count, r.error) == ((), 0, "")
            assert r.prompt not in prompts


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
        calls = count_calls(monkeypatch, "load_model", "load_dataset", "load_rankings",
                            "load_cooccurrence", "run_predictions")
        assert cli("ablate", cfg_path, out) == EXIT_OK
        # Each input is read once, and the scorer only as `train`'s rankings.
        assert calls == {"load_model": 0, "load_dataset": 1, "load_rankings": 1,
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
        """Over a whole chain, `train` scores each test instance once, for
        `rankings.jsonl`, and `ablate` scores none."""
        doc = dict(SMALL_CFG, llm={"backend": "mock_evidence"})
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "runs"
        scored = []
        real = TrainedModel.logits

        def counted(model, patients):
            scored.extend(patient.patient_id for patient in patients)
            return real(model, patients)

        monkeypatch.setattr(TrainedModel, "logits", counted)
        for command in ("synth", "train", "cooc", "ablate"):
            assert cli(command, cfg_path, out) == EXIT_OK
        records = load_run(out / "run_base.jsonl").records
        assert sorted(scored) == sorted(r.patient_id for r in records)

    @pytest.mark.parametrize("command, run_file", [("ablate", "run_base.jsonl"),
                                                   ("sweep-k", "run_k10.jsonl")])
    def test_evidence_is_derived_once_per_instance(self, tmp_path, monkeypatch, command,
                                                   run_file):
        """Every stage and K takes a prefix of one selection and the same
        history order, so each is computed once per test instance."""
        doc = dict(SMALL_CFG, llm={"backend": "mock_evidence"})
        cfg_path = write_cfg(tmp_path, doc)
        out = tmp_path / "runs"
        for command_before in ("synth", "train", "cooc"):
            assert cli(command_before, cfg_path, out) == EXIT_OK
        calls = count_calls(monkeypatch, "select_candidates", "prioritize_history")
        assert cli(command, cfg_path, out) == EXIT_OK
        n = len(load_run(out / run_file).records)
        assert calls == {"select_candidates": n, "prioritize_history": n}

    def test_runs_that_read_no_logit_score_nothing(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK
        scored = []
        real = TrainedModel.logits

        def counted(model, patients):
            scored.extend(patients)
            return real(model, patients)

        monkeypatch.setattr(TrainedModel, "logits", counted)
        assert cli("predict", cfg_path, out, "--stage", "base") == EXIT_OK
        assert scored == []
        assert load_run(out / RUN_FILE).records

    def test_base_run_needs_no_model(self, tmp_path):
        """An LLM-only run reads no logits, so it neither loads nor checks
        `model.json`."""
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train"):
            assert cli(command, cfg_path, out) == EXIT_OK
        assert cli("predict", cfg_path, out, "--stage", "base") == EXIT_OK
        with_model = load_run(out / RUN_FILE).records
        (out / MODEL_FILE).unlink()
        assert cli("predict", cfg_path, out, "--stage", "base") == EXIT_OK
        assert load_run(out / RUN_FILE).records == with_model

    def test_icd_groups_only_for_prioritized_stages(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "runs"
        for command in ("synth", "train", "cooc"):
            assert cli(command, cfg_path, out) == EXIT_OK
        calls = count_calls(monkeypatch, "propagate_to_icd")
        assert cli("predict", cfg_path, out, "--stage", "candidate") == EXIT_OK
        assert calls["propagate_to_icd"] == 0
        assert cli("ablate", cfg_path, out) == EXIT_OK
        n = len(load_run(out / "run_base.jsonl").records)
        # Grouped once per instance; of the four stages, prioritization and
        # relational carry the groups.
        assert calls["propagate_to_icd"] == n
        for stage in ABLATION_STAGES:
            grouped = AblationFlags.for_stage(stage).prioritization
            for record in load_run(out / f"run_{stage}.jsonl").records:
                assert (HISTORY_TITLE_PRIORITIZED in record.prompt) == grouped, stage


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
        assert calls == {"load_model": 0, "run_predictions": len(SWEEP_KS)}


class TestProcessEntry:
    """`python -m dxrank.cli` and the `dxrank` script run `process_main`,
    which exits with `main`'s code and prints what `main` prints."""

    @staticmethod
    def _process(*argv):
        src = str(Path(cli_module.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-m", "dxrank.cli", *map(str, argv)],
                              capture_output=True, env=dict(os.environ, PYTHONPATH=path))

    def test_eval_of_a_finished_chain_exits_0(self, tmp_path):
        out = run_chain(tmp_path)
        done = self._process("eval", "--config", tmp_path / "cfg.json", "--out", out)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stderr == b""

    def test_eval_of_an_empty_out_exits_2_with_one_line(self, tmp_path):
        done = self._process("eval", "--out", tmp_path / "empty")
        assert done.returncode == EXIT_BAD_CONFIG
        lines = done.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_predict_process_writes_and_prints_what_main_does(self, tmp_path, capsys):
        out = run_chain(tmp_path)
        capsys.readouterr()
        assert cli("predict", tmp_path / "cfg.json", out) == EXIT_OK
        printed, in_process = capsys.readouterr().out, (out / RUN_FILE).read_bytes()
        # `main` leaves the collector as it finds it.
        assert gc.isenabled()
        (out / RUN_FILE).unlink()
        done = self._process("predict", "--config", tmp_path / "cfg.json", "--out", out)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.decode() == printed
        assert (out / RUN_FILE).read_bytes() == in_process

    def test_collector_is_off_for_the_command_and_frozen_before_exit(self, monkeypatch):
        events = []

        class Collector:
            def disable(self):
                events.append("disable")

            def freeze(self):
                events.append("freeze")

        def command(argv):
            events.append(("main", argv))
            return EXIT_RUN_FAILURES

        monkeypatch.setattr(cli_module, "gc", Collector())
        monkeypatch.setattr(cli_module, "main", command)
        with pytest.raises(SystemExit) as exited:
            cli_module.process_main(["eval"])
        assert exited.value.code == EXIT_RUN_FAILURES
        assert events == ["disable", ("main", ["eval"]), "freeze"]

    def test_console_script_runs_process_main(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        assert 'dxrank = "dxrank.cli:process_main"' in pyproject.read_text().splitlines()


def _stub_remote_client(cfg):
    """A remote client whose transport answers in process, as mock_evidence
    would, so the pooled remote path runs without a server."""

    def transport(url, body, headers):
        prompt = json.loads(body)["messages"][0]["content"]
        text = mock_evidence_aware(prompt, derive_seed(cfg.seed, prompt))
        return 200, json.dumps({"choices": [{"message": {"content": text}}]}).encode()

    return LlmClient(cfg, transport=transport)


class TestLoopbackEndpoint:
    def test_ablate_keeps_one_connection_per_slot(self, tmp_path):
        """A remote ablate matches a mock_evidence one record for record and
        opens no more connections than it has request slots."""
        out = tmp_path / "runs"
        mock_path = write_cfg(tmp_path, dict(SMALL_CFG, llm={"backend": "mock_evidence"}),
                              "mock.json")
        for command in ("synth", "train", "cooc", "ablate"):
            assert cli(command, mock_path, out) == EXIT_OK
        stages = ("base", "candidate", "prioritization", "relational")
        mocked = {s: (out / f"run_{s}.jsonl").read_bytes().splitlines() for s in stages}
        with LoopbackLlm() as endpoint:
            llm = {"backend": "remote", "endpoint_url": endpoint.url, "max_in_flight": 2,
                   "timeout_ms": 5000}
            assert cli("ablate", write_cfg(tmp_path, dict(SMALL_CFG, llm=llm)), out) == EXIT_OK
        asked = 0
        for stage in stages:
            lines = (out / f"run_{stage}.jsonl").read_bytes().splitlines()
            assert lines[1:] == mocked[stage][1:], stage
            asked += sum(1 for r in load_run(out / f"run_{stage}.jsonl").records
                         if r.candidates)
        assert endpoint.requests == asked
        assert 1 <= endpoint.connections <= 2


def _asked(run_path):
    """The prompts of a run's records that have candidates, which are the
    records that ask the LLM."""
    return [r.prompt for r in load_run(run_path).records if r.candidates]


class TestCompletionCache:
    """The remote completion cache in `<out>/llm_cache`, end to end against
    the loopback endpoint."""

    def _prepare(self, tmp_path, endpoint, **llm):
        out = tmp_path / "runs"
        llm = {"backend": "remote", "endpoint_url": endpoint.url, "timeout_ms": 5000,
               "max_in_flight": 2, **llm}
        port = endpoint.url.rsplit(":", 1)[1]
        cfg_path = write_cfg(tmp_path, dict(SMALL_CFG, llm=llm), f"remote_{port}.json")
        if not (out / MODEL_FILE).exists():
            for command in ("synth", "train", "cooc"):
                assert cli(command, cfg_path, out) == EXIT_OK
        return cfg_path, out

    def test_second_predict_sends_nothing(self, tmp_path, capsys):
        with LoopbackLlm() as endpoint:
            cfg_path, out = self._prepare(tmp_path, endpoint)
            assert cli("predict", cfg_path, out) == EXIT_OK
            first = (out / RUN_FILE).read_bytes()
            sent = endpoint.requests
            assert cli("predict", cfg_path, out) == EXIT_OK
        asked = len(_asked(out / RUN_FILE))
        assert sent == asked > 0 and endpoint.requests == sent
        assert (out / RUN_FILE).read_bytes() == first
        n = len(load_run(out / RUN_FILE).records)
        printed = capsys.readouterr().out.splitlines()
        assert printed[-2:] == [f"wrote {n} records (0 failed, 0 from cache)",
                                f"wrote {n} records (0 failed, {asked} from cache)"]

    def test_ablate_after_predict_sends_only_the_other_stages(self, tmp_path, capsys):
        with LoopbackLlm() as endpoint:
            cfg_path, out = self._prepare(tmp_path, endpoint)
            assert cli("predict", cfg_path, out) == EXIT_OK
            sent = endpoint.requests
            assert cli("ablate", cfg_path, out) == EXIT_OK
        others = [p for stage in ABLATION_STAGES if stage != "relational"
                  for p in _asked(out / f"run_{stage}.jsonl")]
        assert sorted(endpoint.prompts[sent:]) == sorted(others)
        relational = _asked(out / "run_relational.jsonl")
        assert sorted(relational) == sorted(endpoint.prompts[:sent])
        lines = (out / "run_relational.jsonl").read_bytes().splitlines()
        assert lines[1:] == (out / RUN_FILE).read_bytes().splitlines()[1:]
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"llm: {endpoint.requests - sent} fetched, {len(relational)} from cache")

    @pytest.mark.parametrize("extra, llm, samples", [
        (("--strategy", "sc"), {}, SC_SAMPLES), ((), {"temperature": 0.5}, 1)],
        ids=["sc", "temperature"])
    def test_sampled_runs_send_every_request(self, tmp_path, extra, llm, samples):
        with LoopbackLlm() as endpoint:
            cfg_path, out = self._prepare(tmp_path, endpoint, **llm)
            for run in (1, 2):
                assert cli("predict", cfg_path, out, *extra) == EXIT_OK
                assert endpoint.requests == run * samples * len(_asked(out / RUN_FILE))
        assert not (out / "llm_cache").exists()

    def test_failed_instances_are_asked_again(self, tmp_path, capsys):
        with LoopbackLlm() as endpoint:
            cfg_path, out = self._prepare(tmp_path, endpoint, max_retries=0)
            endpoint.status = 503
            assert cli("predict", cfg_path, out) == EXIT_RUN_FAILURES
            failed = len(load_run(out / RUN_FILE).failed)
            assert failed == endpoint.requests > 0
            assert not (out / "llm_cache").exists()
            endpoint.status = 200
            assert cli("predict", cfg_path, out) == EXIT_OK
        assert endpoint.requests == 2 * failed
        assert not load_run(out / RUN_FILE).failed
        n = len(load_run(out / RUN_FILE).records)
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"wrote {n} records ({failed} failed, 0 from cache)",
            f"wrote {n} records (0 failed, 0 from cache)"]

    def test_bad_entries_are_asked_again_and_rewritten(self, tmp_path):
        with LoopbackLlm() as endpoint:
            cfg_path, out = self._prepare(tmp_path, endpoint)
            assert cli("predict", cfg_path, out) == EXIT_OK
            first, sent = (out / RUN_FILE).read_bytes(), endpoint.requests
            truncated, garbled = sorted((out / "llm_cache").iterdir())[:2]
            truncated.write_bytes(truncated.read_bytes()[:-7])
            garbled.write_bytes(b"not json")
            assert cli("predict", cfg_path, out) == EXIT_OK
        assert endpoint.requests == sent + 2
        assert (out / RUN_FILE).read_bytes() == first
        for entry in (truncated, garbled):
            assert isinstance(json.loads(entry.read_bytes())["text"], str)
        assert len(list((out / "llm_cache").iterdir())) == sent

    def test_entries_of_another_endpoint_are_not_used(self, tmp_path):
        with LoopbackLlm() as first, LoopbackLlm() as second:
            cfg_path, out = self._prepare(tmp_path, first)
            assert cli("predict", cfg_path, out) == EXIT_OK
            lines = (out / RUN_FILE).read_bytes().splitlines()
            cfg_path, out = self._prepare(tmp_path, second)
            assert cli("predict", cfg_path, out) == EXIT_OK
        assert second.requests == first.requests == len(_asked(out / RUN_FILE))
        assert (out / RUN_FILE).read_bytes().splitlines()[1:] == lines[1:]

    def test_token_is_in_no_cache_file(self, tmp_path, monkeypatch):
        token = "tok-5e1f0c9a"
        monkeypatch.setenv("DXRANK_TEST_TOKEN", token)
        with LoopbackLlm() as endpoint:
            cfg_path, out = self._prepare(tmp_path, endpoint, api_key_env="DXRANK_TEST_TOKEN")
            assert cli("predict", cfg_path, out) == EXIT_OK
        entries = list((out / "llm_cache").rglob("*"))
        assert len(entries) == endpoint.requests > 0
        for path in entries:
            assert token not in path.name and token.encode() not in path.read_bytes()

    def test_mock_chain_makes_no_cache(self, tmp_path, capsys):
        out = run_chain(tmp_path, cfg_doc=dict(SMALL_CFG, llm={"backend": "mock_evidence"}))
        for command in ("ablate", "sweep-k"):
            assert cli(command, tmp_path / "cfg.json", out) == EXIT_OK
        assert not (out / "llm_cache").exists()
        printed = capsys.readouterr().out
        n = len(load_run(out / RUN_FILE).records)
        assert f"wrote {n} records (0 failed)\n" in printed
        assert "cache" not in printed and "llm:" not in printed


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
