"""Seeded type mutations of the three JSON artifacts.

Each case replaces the value at one random path of a valid file with a
value of another JSON type. The loader must either accept the file or
raise an InputError; any other exception is a leak that the command line
would report as a crash instead of a bad input.
"""
from __future__ import annotations

import copy
import json
import random
import re
from collections import defaultdict
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from dxrank import InputError
from dxrank.backends import TrainConfig, load_model, save_model, train
from dxrank.cli import config_from_dict, main
from dxrank.ehr import build_instances, load_dataset, save_dataset
from dxrank.metrics import EvalError, RunArtifact, RunRecord, evaluate_run, load_run, \
    save_run

CASES = 200
REPLACEMENTS = (5, "x", [], {}, None, [1], True)


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}.get(type(value), "null")


def _paths(node, path=()):
    """Every path into a JSON value, the empty path (the value) first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


def _mutations(docs, seed: int, cases: int = CASES):
    """`cases` seeded mutations of a file whose lines are the JSON documents
    `docs` (a single one for a plain JSON file). Each case picks a schema
    position (a path with array indices wildcarded) uniformly, so a long
    tensor counts as much as a scalar, then one line and path at it, and puts
    a value of another JSON type there. Yields the line, the path, the value
    and the mutated documents."""
    rng = random.Random(seed)
    positions: dict[tuple, list] = defaultdict(list)
    for i, doc in enumerate(docs):
        for path in _paths(doc):
            positions[_position(path)].append((i, path))
    for _ in range(cases):
        i, path = rng.choice(positions[rng.choice(list(positions))])
        old = reduce(getitem, path, docs[i])
        value = rng.choice([v for v in REPLACEMENTS if _json_type(v) != _json_type(old)])
        mutated = copy.deepcopy(docs[i])
        if path:
            reduce(getitem, path[:-1], mutated)[path[-1]] = copy.deepcopy(value)
        else:
            mutated = value
        yield i, path, value, docs[:i] + [mutated] + docs[i + 1:]


def _position(path) -> tuple:
    return tuple("*" if isinstance(k, int) else k for k in path)


def _check(load, write, docs, tmp_path, seed: int, cases: int = CASES,
           all_raise: bool = False) -> None:
    """Load each of `_mutations`' files. Some cases must load and some
    raise, or with `all_raise` every case raise."""
    target = tmp_path / "mutated"
    # Unmutated, the file loads, so each rejection below is its mutation's.
    write(target, docs)
    load(target)
    raised = 0
    for case, (i, path, value, mutated) in enumerate(_mutations(docs, seed, cases)):
        write(target, mutated)
        try:
            load(target)
        except InputError:
            raised += 1
        except Exception as exc:  # any other exception is the leak under test
            pytest.fail(f"case {case}: line {i + 1}, path {list(path)} = {value!r}: "
                        f"{type(exc).__name__}: {exc}")
    assert raised == cases if all_raise else 0 < raised < cases


def _write_lines(path, docs) -> None:
    path.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")


def _read_lines(path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("kind", ["box", "retain"])
def test_model_type_mutations(tmp_path, dataset, ontology, kind):
    model = train(kind, dataset, ontology, TrainConfig(epochs=0, d=2))
    save_model(model, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    _check(lambda path: load_model(path, ontology),
           lambda path, docs: path.write_text(json.dumps(docs[0]), encoding="utf-8"),
           [doc], tmp_path, seed=1 if kind == "box" else 2, cases=CASES // 2)


def test_dataset_type_mutations(tmp_path, dataset, ontology):
    save_dataset(dataset, tmp_path / "dataset.jsonl")
    # Every field of a dataset line has one JSON type, so every case raises.
    _check(lambda path: load_dataset(path, ontology), _write_lines,
           _read_lines(tmp_path / "dataset.jsonl"), tmp_path, seed=3, all_raise=True)


FLOAT_FIELDS = ("learning_rate", "beta")
STR_FIELDS = ("patient_id", "prompt", "raw_text", "error", "fingerprint")


@pytest.mark.parametrize("kind, path, value", [
    ("dataset", ("visits", 0, "day"), True),
    ("dataset", ("visits", 0, "day"), 1.5),
    ("model", ("d",), "16"),
    ("model", ("seed",), True),
    ("model", ("train_config", "epochs"), 2.9),
    ("run", ("seed",), 2.7),
    ("run", ("matched_count",), True),
    ("model", ("train_config", "learning_rate"), True),
    ("model", ("volume", "beta"), True),
    ("model", ("format_version",), True),
    ("model", ("format_version",), 1.0),
    ("model", ("losses",), "12"),
    ("model", ("losses", 0), True),
    ("model", ("losses", 0), "3.5"),
    # NaN and Infinity are not JSON numbers (RFC 8259 §6).
    ("model", ("losses", 0), float("nan")),
    ("model", ("volume", "beta"), float("inf")),
    ("model", ("train_config", "learning_rate"), float("-inf")),
    ("run", ("patient_id",), 7),
    ("run", ("prompt",), 3),
    ("run", ("raw_text",), None),
    ("run", ("error",), 5),
    ("run", ("fingerprint",), ["x"]),
])
def test_int_fields_take_json_integers_only(tmp_path, dataset, ontology, kind, path, value):
    """Integer fields take JSON integers only, float fields finite JSON
    numbers only and string fields JSON strings only: a bool is neither
    number. The loss history is an array of numbers."""
    target = tmp_path / "file"
    if kind == "dataset":
        save_dataset(dataset, target)
        load = lambda p: load_dataset(p, ontology)
    elif kind == "run":
        _save_run(dataset, target)
        load = load_run
    else:
        save_model(train("box", dataset, ontology, TrainConfig(epochs=0, d=2)), target)
        load = lambda p: load_model(p, ontology)
    docs = _read_lines(target)
    # The first line that has the field: a run's meta line holds its seed.
    doc = next(d for d in docs if path[0] in d)
    reduce(getitem, path[:-1], doc)[path[-1]] = value
    _write_lines(target, docs)
    if isinstance(path[-1], int):  # an entry of an array field
        field, hint = f"{path[-2]}[{path[-1]}]", "float"
    else:
        field = path[-1]
        hint = ("list" if field == "losses" else "float" if field in FLOAT_FIELDS
                else "str" if field in STR_FIELDS else "int")
    with pytest.raises(InputError, match=re.escape(f"{field} must be {hint}")):
        load(target)


def _save_run(dataset, path) -> None:
    records = [
        RunRecord(patient_id=inst.patient_id, prompt="p", raw_text="Answer: x",
                  ranked=tuple(sorted(inst.target_overall)),
                  candidates=tuple(sorted(inst.target_overall)),
                  target_overall=tuple(sorted(inst.target_overall)),
                  target_novel=tuple(sorted(inst.target_novel)),
                  history_ccs=tuple(sorted(inst.history_ccs)), matched_count=1)
        for inst in build_instances(dataset)
    ]
    save_run(RunArtifact(records=records, fingerprint="f", seed=0, task="novel"), path)


def test_run_type_mutations(tmp_path, dataset):
    _save_run(dataset, tmp_path / "run.jsonl")
    # A run that loads must also score, or fail as an input error.
    _check(lambda path: evaluate_run(load_run(path)), _write_lines,
           _read_lines(tmp_path / "run.jsonl"), tmp_path, seed=4)


@pytest.mark.parametrize("line, kind", [(0, "meta"), (1, "record")])
def test_unknown_run_keys_rejected(tmp_path, dataset, line, kind):
    target = tmp_path / "run.jsonl"
    _save_run(dataset, target)
    docs = _read_lines(target)
    docs[line]["extra"] = 1
    _write_lines(target, docs)
    with pytest.raises(EvalError, match=re.escape(
            f"line {line + 1}: unknown {kind} keys: ['extra']")):
        load_run(target)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


def _full_config() -> dict:
    """The paper-box workload's config, with every llm field in use."""
    doc = json.loads(WORKLOADS.read_text(encoding="utf-8"))["paper-box"]["config"]
    doc["llm"] = dict(doc["llm"], backend="remote", endpoint_url="http://127.0.0.1:9")
    return doc


def test_config_type_mutations(tmp_path):
    # Every config field has one JSON type, so every case raises.
    _check(lambda path: config_from_dict(json.loads(path.read_text(encoding="utf-8"))),
           lambda path, docs: path.write_text(json.dumps(docs[0]), encoding="utf-8"),
           [_full_config()], tmp_path, seed=5, all_raise=True)


def _unknown_keys(doc):
    """`doc` with a key `unexpected` added to one of its objects, for each
    object in turn. Its value would be valid under `eval_ks`, so the key
    alone is what is wrong."""
    for path in _paths(doc):
        if isinstance(reduce(getitem, path, doc), dict):
            mutated = copy.deepcopy(doc)
            reduce(getitem, path, mutated)["unexpected"] = [1]
            yield path, mutated


def test_config_unknown_keys():
    cases = list(_unknown_keys(_full_config()))
    assert {_position(path) for path, _ in cases} == {
        (), ("synth",), ("synth", "rules", "*"), ("train",), ("llm",), ("eval_ks",)}
    for path, doc in cases:
        with pytest.raises(InputError, match="'unexpected'"):
            config_from_dict(doc)


def test_bad_configs_exit_2_with_one_line(tmp_path, capsys):
    """The mutated configs of the two tests above, through the command line."""
    doc, rng = _full_config(), random.Random(6)
    unknown = [mutated for _, mutated in _unknown_keys(doc)]
    typed = [mutated for *_, [mutated] in _mutations([doc], seed=5)]
    path = tmp_path / "cfg.json"
    for case in rng.sample(unknown, 10) + rng.sample(typed, 40):
        path.write_text(json.dumps(case), encoding="utf-8")
        code = main(["eval", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, case
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
