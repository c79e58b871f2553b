from __future__ import annotations

import json
import math

import numpy as np
import pytest

import dxrank.backends as backends_module
from dxrank.backends import (
    BackendError,
    TrainConfig,
    infer_logits,
    load_model,
    save_model,
    train,
)
from dxrank.backends.base import encode_batch
from dxrank.backends.boxes import VolumeConfig
from dxrank.ehr import build_instances
from dxrank.synth import SyntheticConfig, generate_synthetic

CFG = SyntheticConfig(n_patients=40, n_ccs=12, visits_range=(2, 4), seed=6)


@pytest.fixture(scope="module")
def data():
    return generate_synthetic(CFG)


class TestTrainLoop:
    def test_zero_epochs_keeps_init(self, data):
        ds, onto = data
        a = train("box", ds, onto, TrainConfig(epochs=0, d=4, seed=3))
        b = train("box", ds, onto, TrainConfig(epochs=0, d=4, seed=3))
        assert len(a.losses) == 1
        for key, val in a.tensors.items():
            np.testing.assert_array_equal(val, b.tensors[key])

    def test_zero_learning_rate_never_moves(self, data):
        ds, onto = data
        model = train(
            "retain", ds, onto,
            TrainConfig(epochs=3, learning_rate=0.0, d=4, seed=0),
        )
        assert len(model.losses) == 4
        assert all(l == model.losses[0] for l in model.losses)

    @pytest.mark.parametrize("kind", ["box", "retain"])
    def test_loss_decreases(self, data, kind):
        ds, onto = data
        model = train(kind, ds, onto, TrainConfig(epochs=5, d=8, seed=1))
        assert len(model.losses) == 6
        assert model.losses[-1] < model.losses[0]

    def test_deterministic_per_seed(self, data):
        ds, onto = data
        cfg = TrainConfig(epochs=2, d=4, seed=9)
        a = train("box", ds, onto, cfg)
        b = train("box", ds, onto, cfg)
        assert a.losses == b.losses
        for key, val in a.tensors.items():
            np.testing.assert_array_equal(val, b.tensors[key])

    def test_seed_changes_training(self, data):
        ds, onto = data
        a = train("box", ds, onto, TrainConfig(epochs=1, d=4, seed=0))
        b = train("box", ds, onto, TrainConfig(epochs=1, d=4, seed=1))
        assert a.losses != b.losses

    def test_unknown_backend_rejected(self, data):
        ds, onto = data
        with pytest.raises(BackendError):
            train("transformer", ds, onto)

    def test_logit_vector_matches_infer(self, data):
        ds, onto = data
        model = train("box", ds, onto, TrainConfig(epochs=1, d=4, seed=2))
        inst = build_instances(ds)[0]
        via_model = model.logits([inst])[0]
        direct = infer_logits("box", model.vocab, model.tensors, [inst], model.volume)[0]
        np.testing.assert_array_equal(via_model.scores, direct.scores)

    @pytest.mark.parametrize("kind", ["box", "retain"])
    def test_logits_in_chunks_match_each_scored_alone(self, data, kind):
        ds, onto = data
        model = train(kind, ds, onto, TrainConfig(epochs=1, d=4, seed=2, batch_size=3))
        insts = build_instances(ds)[:10]
        got = model.logits(insts)
        assert len(got) == len(insts)
        for inst, lv in zip(insts, got):
            alone = infer_logits(kind, model.vocab, model.tensors, [inst],
                                 model.volume)[0].scores
            np.testing.assert_allclose(lv.scores, alone, rtol=0,
                                       atol=1e-12 * np.max(np.abs(alone)))


class TestRegistry:
    @pytest.mark.parametrize("kind, kernels", [
        ("box", ("box_forward", "box_backward", "boxlm_logits")),
        ("retain", ("retain_forward", "retain_backward", "retain_logits")),
    ])
    def test_kernels_looked_up_at_call_time(self, data, monkeypatch, kind, kernels):
        """Training and inference reach each scorer kernel through its name
        in dxrank.backends, so a wrapper installed there sees every call."""
        ds, onto = data
        calls = dict.fromkeys(kernels, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in kernels:
            monkeypatch.setattr(backends_module, name,
                                counted(name, getattr(backends_module, name)))
        forward, backward, logits = kernels
        model = train(kind, ds, onto, TrainConfig(epochs=1, d=4, seed=0))
        assert calls[forward] > calls[backward] > 0
        assert calls[logits] == 0
        infer_logits(kind, model.vocab, model.tensors, build_instances(ds)[:1],
                     model.volume)
        assert calls[logits] == 1


class TestSerialization:
    @pytest.mark.parametrize("kind", ["box", "retain"])
    def test_round_trip_preserves_logits(self, data, tmp_path, kind):
        ds, onto = data
        model = train(kind, ds, onto, TrainConfig(epochs=1, d=4, seed=5),
                      VolumeConfig(beta=0.2))
        path = tmp_path / "m.json"
        save_model(model, path)
        again = load_model(path, onto)
        assert again.backend == kind
        assert again.losses == model.losses
        assert again.volume == model.volume
        inst = build_instances(ds)[0]
        np.testing.assert_array_equal(
            again.logits([inst])[0].scores, model.logits([inst])[0].scores
        )
        # Re-saving the loaded model writes the same bytes.
        save_model(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_save_is_deterministic(self, data, tmp_path):
        ds, onto = data
        model = train("box", ds, onto, TrainConfig(epochs=1, d=4, seed=5))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_vocab_mismatch_rejected(self, data, tmp_path):
        ds, onto = data
        other_ds, other_onto = generate_synthetic(
            SyntheticConfig(n_patients=5, n_ccs=9, seed=0)
        )
        model = train("box", ds, onto, TrainConfig(epochs=0, d=4))
        path = tmp_path / "m.json"
        save_model(model, path)
        with pytest.raises(BackendError):
            load_model(path, other_onto)

    def test_tampered_tensor_shape_rejected(self, data, tmp_path):
        ds, onto = data
        for kind, key in (("box", "attn_query"), ("retain", "rnn_beta/b_z"),
                          ("retain", "rnn_alpha/u_h"), ("retain", "embed")):
            model = train(kind, ds, onto, TrainConfig(epochs=0, d=4))
            path = tmp_path / f"{kind}.json"
            save_model(model, path)
            doc = json.loads(path.read_text())
            doc["tensors"][key] = [0.0, 0.0]
            path.write_text(json.dumps(doc))
            with pytest.raises(BackendError, match=f"tensor {key} has shape"):
                load_model(path, onto)

    @pytest.mark.parametrize("kind", ["box", "retain"])
    def test_tampered_width_rejected(self, data, tmp_path, kind):
        """A corrupt d is a shape mismatch; checking it allocates nothing
        of that width."""
        ds, onto = data
        model = train(kind, ds, onto, TrainConfig(epochs=0, d=4))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["d"] = 10**12
        path.write_text(json.dumps(doc))
        with pytest.raises(BackendError, match="has shape"):
            load_model(path, onto)

    def test_non_finite_tensor_rejected(self, data, tmp_path):
        ds, onto = data
        model = train("box", ds, onto, TrainConfig(epochs=0, d=4))
        path = tmp_path / "m.json"
        save_model(model, path)
        for bad in (float("nan"), float("inf")):
            doc = json.loads(path.read_text())
            doc["tensors"]["visit_weight_vec"][1] = bad
            path.with_name("bad.json").write_text(json.dumps(doc))
            with pytest.raises(BackendError, match="non-finite"):
                load_model(path.with_name("bad.json"), onto)

    def test_missing_entry_rejected(self, data, tmp_path):
        ds, onto = data
        model = train("box", ds, onto, TrainConfig(epochs=0, d=4))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["tensors"]
        path.write_text(json.dumps(doc))
        with pytest.raises(BackendError, match="no 'tensors' entry"):
            load_model(path, onto)

    def test_invalid_json_rejected(self, data, tmp_path):
        ds, onto = data
        path = tmp_path / "m.json"
        path.write_text('{"format_version": 1,')
        with pytest.raises(BackendError, match="not valid JSON"):
            load_model(path, onto)

    def test_unknown_format_version_rejected(self, data, tmp_path):
        ds, onto = data
        model = train("box", ds, onto, TrainConfig(epochs=0, d=4))
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(BackendError):
            load_model(path, onto)


class TestEpochLoss:
    """Each epoch's loss comes from the batches it trained on: no extra
    pass over the training set after an epoch."""

    @pytest.mark.parametrize("kind", ["box", "retain"])
    def test_instance_loss_ignores_its_batch(self, data, kind):
        ds, onto = data
        backend = backends_module._backend(kind)
        encoded = encode_batch(build_instances(ds, all_prefixes=True), onto.ccs_codes)
        flat = backend.init(onto.ccs_codes, 4, np.random.default_rng(1))
        volume = VolumeConfig()
        in_order = [loss for chunk in backends_module._chunks(encoded, 5)
                    for loss in backends_module._losses(backend, flat, chunk, volume)]
        rng = np.random.default_rng(2)
        for _ in range(3):
            order = rng.permutation(len(encoded))
            shuffled = [0.0] * len(encoded)
            for picks in backends_module._chunks(order, 5):
                chunk = [encoded[i] for i in picks]
                for i, loss in zip(picks, backends_module._losses(
                        backend, flat, chunk, volume)):
                    shuffled[i] = loss
            assert shuffled == in_order

    def test_zero_learning_rate_never_moves_box(self, data):
        ds, onto = data
        model = train(
            "box", ds, onto,
            TrainConfig(epochs=3, learning_rate=0.0, d=4, seed=0),
        )
        assert len(model.losses) == 4
        assert all(l == model.losses[0] for l in model.losses)

    @pytest.mark.parametrize("epochs, batch_size", [(0, 16), (1, 16), (3, 7)])
    def test_one_forward_per_batch_and_one_loss_pass(self, data, monkeypatch,
                                                     epochs, batch_size):
        ds, onto = data
        calls = {"box_forward": 0, "box_backward": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(backends_module, name,
                                counted(name, getattr(backends_module, name)))
        train("box", ds, onto, TrainConfig(epochs=epochs, d=4, seed=0,
                                           batch_size=batch_size))
        n = len(build_instances(ds, all_prefixes=True))
        batches = math.ceil(n / batch_size)
        assert calls == {"box_forward": batches * (epochs + 1),
                         "box_backward": batches * epochs}
