"""The config schema's home module, and what each command imports.

Every command process pays for the modules it imports, so `dxrank.config`
holds the whole schema on the standard library alone, and `dxrank.cli`
binds each module's names when a command first runs it.
"""
from __future__ import annotations

import json
from pathlib import Path

from dxrank import backends, config, ehr, llm, metrics, prompting, synth
from dxrank.backends import base

from .test_llm import _python

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestNames:
    def test_name_lists_are_their_registries(self):
        assert tuple(backends.BACKENDS) == config.BACKEND_KINDS
        assert config.LLM_BACKENDS == ("remote", *llm.MOCKS)

    def test_old_homes_hold_the_same_objects(self):
        assert (ehr.TASKS, ehr.SplitError, ehr.check_split_ratios) == (
            config.TASKS, config.SplitError, config.check_split_ratios)
        assert (base.BackendError, base.TrainConfig, backends.TrainConfig) == (
            config.BackendError, config.TrainConfig, config.TrainConfig)
        assert (llm.LlmConfig, llm.LLM_BACKENDS) == (config.LlmConfig, config.LLM_BACKENDS)
        assert (synth.SyntheticConfig, synth.ComorbidityRule, synth.SyntheticConfigError,
                synth.ccs_vocabulary) == (config.SyntheticConfig, config.ComorbidityRule,
                                          config.SyntheticConfigError, config.ccs_vocabulary)
        assert (prompting.STRATEGIES, prompting.ABLATION_STAGES,
                prompting.DEFAULT_MAX_PROMPT_CHARS) == (
            config.STRATEGIES, config.ABLATION_STAGES, config.DEFAULT_MAX_PROMPT_CHARS)
        assert metrics.DEFAULT_KS is config.DEFAULT_KS
        assert base.vocab_index is ehr.vocab_index


def test_reading_a_config_loads_no_other_module():
    out = _python("""
        import sys
        from dxrank.config import config_from_dict
        config_from_dict({"synth": {"n_ccs": 12}, "llm": {"backend": "mock_evidence"}})
        print(sorted(m for m in sys.modules if m.startswith("dxrank") or m == "numpy"))
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['dxrank', 'dxrank.config']"


def test_each_command_loads_only_what_it_runs(tmp_path):
    """A fresh interpreter per command of a tiny mock chain. No command loads
    `dataclasses`, and those that load no numpy load no `inspect` either:
    numpy imports it itself."""

    def loaded(*argv: str, exit_code: int = 0) -> set[str]:
        out = _python(f"""
            import json, sys
            from dxrank.cli import main
            code = main({[*argv, "--out", str(tmp_path)]!r})
            print(json.dumps([code, sorted(sys.modules)]))
        """)
        assert out.returncode == 0, out.stderr
        code, modules = json.loads(out.stdout.splitlines()[-1])
        assert code == exit_code, argv
        assert "dataclasses" not in modules, argv
        if "numpy" not in modules:
            assert "inspect" not in modules, argv
        return set(modules)

    mods = {f"dxrank.{m}" for m in ("backends", "evidence", "llm", "prompting",
                                     "metrics", "synth")}
    synth_loads = loaded("synth", "--n-patients", "30", "--n-ccs", "12")
    assert not synth_loads & (mods - {"dxrank.synth"})
    assert "numpy" not in synth_loads
    assert not loaded("train", "--epochs", "1", "--d", "4") & (
        mods - {"dxrank.backends"})
    cooc_loads = loaded("cooc")
    assert not cooc_loads & (mods - {"dxrank.evidence"})
    assert "numpy" not in cooc_loads
    predict = ("predict", "--llm-backend", "mock_evidence", "--k", "5")
    assert "concurrent.futures" not in loaded(*predict)
    assert "numpy" not in loaded("eval")
    # Only `train` loads the scorers: the prediction commands read its
    # rankings, and without them exit 2 having loaded neither.
    scorer = {"numpy", "dxrank.backends"}
    commands = (predict, ("ablate", "--llm-backend", "mock_evidence", "--k", "5"),
                ("sweep-k", "--llm-backend", "mock_evidence"))
    for argv in commands:
        assert not loaded(*argv) & scorer, argv
    (tmp_path / "rankings.jsonl").unlink()
    for argv in commands:
        assert not loaded(*argv, exit_code=2) & scorer, argv


def test_the_data_model_loads_no_numpy():
    """`dxrank.ehr` imports no numpy: the logit vector lives with the
    scorers, and the split draws from `dxrank.rng`."""
    out = _python("""
        import sys
        import dxrank.ehr
        print("numpy" in sys.modules)
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_the_evidence_layer_loads_no_scorer():
    """The evidence layer reads a scorer's ranking from `dxrank.ehr`, counts
    in Python ints and draws the mock's noise from `dxrank.rng`, so the
    evidence, prompt and LLM modules import neither the training package
    nor numpy."""
    for module in ("dxrank.evidence", "dxrank.prompting", "dxrank.llm"):
        out = _python(f"""
            import sys, {module}
            print(sorted(m for m in sys.modules
                         if m.startswith("dxrank.backends") or m == "numpy"))
        """)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]", module


def test_traced_names_resolve_and_run(tmp_path):
    """perfbench/spans.py wraps names on a fresh `dxrank.cli` before `main`
    runs; each must resolve there, and the wrapper set is what runs, also
    when nothing looked the name up first."""
    out = _python(f"""
        import sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        import dxrank.cli as cli
        assert "numpy" not in sys.modules
        import spans
        tracer = spans.Tracer()
        tracer.install()
        assert cli.main(["synth", "--out", {str(tmp_path / "a")!r}, "--n-patients", "8"]) == 0
        print(sorted(s["name"] for s in tracer.spans))
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "['ehr.save_dataset', 'synth.generate_synthetic']"

    out = _python(f"""
        import sys
        import dxrank.cli as cli
        from dxrank.synth import generate_synthetic
        assert "generate_synthetic" not in vars(cli)
        calls = []
        cli.generate_synthetic = lambda cfg: calls.append(cfg) or generate_synthetic(cfg)
        assert cli.main(["synth", "--out", {str(tmp_path / "b")!r}, "--n-patients", "8"]) == 0
        print(len(calls))
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "1"
