"""Trainable scoring backends over the CCS vocabulary.

Two interchangeable scorers ("box" and "retain") share a training loop
(mini-batch Adam on mean multi-label BCE), a finite-difference gradient
checker, a unified inference entry point, and a versioned JSON parameter
format.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..ehr import Dataset, Ontology, PredictionInstance, build_instances
from .base import (
    BackendError,
    EncodedInstance,
    LogitVector,
    TrainConfig,
    code_index,
    encode_instance,
    pack_instances,
)
from .boxes import (
    BoxEmbed,
    BoxLMParams,
    VolumeConfig,
    box_backward,
    box_forward,
    boxlm_logits,
    init_box_params,
    intersection_volume,
    patient_box,
    visit_box,
)
from .numerics import (
    ParamTree,
    adam_init,
    adam_step,
    bce_with_logits,
    bce_with_logits_grad,
    zeros_like_tree,
)
from .retain import (
    GruParams,
    RetainParams,
    init_retain_params,
    retain_backward,
    retain_forward,
    retain_logits,
)

BACKENDS = ("box", "retain")

__all__ = [
    "BACKENDS",
    "BackendError",
    "BoxEmbed",
    "BoxLMParams",
    "GradCheckReport",
    "GruParams",
    "LogitVector",
    "RetainParams",
    "TrainConfig",
    "TrainedModel",
    "VolumeConfig",
    "bce_loss",
    "boxlm_logits",
    "grad_check",
    "gradients",
    "infer_logits",
    "intersection_volume",
    "load_model",
    "patient_box",
    "retain_logits",
    "save_model",
    "train",
    "visit_box",
]


def _check_kind(backend_kind: str) -> None:
    if backend_kind not in BACKENDS:
        raise BackendError(f"unknown backend kind {backend_kind!r}")


def bce_loss(logits: LogitVector, target: Sequence[str]) -> float:
    """Mean over codes of binary cross-entropy between logits and the
    multi-hot encoding of the target CCS set."""
    index = code_index(logits.vocab)
    y = np.zeros(len(logits.vocab))
    try:
        y[[index[c] for c in sorted(set(target))]] = 1.0
    except KeyError as exc:
        raise BackendError(f"target CCS {exc.args[0]!r} not in vocabulary") from None
    return float(bce_with_logits(logits.scores, y))


def _instance_losses(backend_kind: str, flat: ParamTree,
                     encoded: Sequence[EncodedInstance], volume: VolumeConfig,
                     grads: ParamTree | None = None, scale: float = 1.0) -> list[float]:
    """Each instance's mean BCE, in order. With `grads`, also accumulate the
    gradient of `scale` times their sum. The box scorer takes the whole
    chunk as one packed batch; retain runs one instance at a time."""
    if backend_kind == "box":
        batch = pack_instances(encoded)
        logits, cache = box_forward(flat, batch, volume)
        if grads is not None:
            dlogits = bce_with_logits_grad(logits, batch.targets) * scale
            box_backward(flat, batch, cache, dlogits, volume, grads)
        return bce_with_logits(logits, batch.targets).tolist()
    losses = []
    for enc in encoded:
        logits, cache = retain_forward(flat, enc)
        losses.append(float(bce_with_logits(logits, enc.target)))
        if grads is not None:
            dlogits = bce_with_logits_grad(logits, enc.target) * scale
            retain_backward(flat, enc, cache, dlogits, grads)
    return losses


def _batch_loss(backend_kind: str, flat: ParamTree,
                encoded: Sequence[EncodedInstance], volume: VolumeConfig,
                chunk_size: int) -> float:
    """Mean loss over `encoded`, scored `chunk_size` instances at a time."""
    total = 0.0
    for start in range(0, len(encoded), chunk_size):
        for loss in _instance_losses(backend_kind, flat,
                                     encoded[start:start + chunk_size], volume):
            total += loss
    return total / len(encoded)


def _loss_and_grads(backend_kind: str, flat: ParamTree,
                    encoded: Sequence[EncodedInstance],
                    volume: VolumeConfig) -> tuple[float, ParamTree]:
    grads = zeros_like_tree(flat)
    total = 0.0
    scale = 1.0 / len(encoded)
    for loss in _instance_losses(backend_kind, flat, encoded, volume, grads, scale):
        total += loss
    return total * scale, grads


def _params_obj(backend_kind: str, vocab: Sequence[str],
                flat: ParamTree) -> BoxLMParams | RetainParams:
    if backend_kind == "box":
        return BoxLMParams.from_flat(vocab, flat)
    return RetainParams.from_flat(vocab, flat)


def _encode_batch(batch: Sequence[PredictionInstance],
                  vocab: tuple[str, ...]) -> list[EncodedInstance]:
    index = code_index(vocab)
    return [encode_instance(inst, index) for inst in batch]


def gradients(backend_kind: str, params: BoxLMParams | RetainParams,
              batch: Sequence[PredictionInstance],
              volume: VolumeConfig = VolumeConfig()) -> ParamTree:
    """Exact gradient of the mean BCE loss over the batch, keyed like
    params.flat()."""
    _check_kind(backend_kind)
    if not batch:
        raise BackendError("gradient batch is empty")
    encoded = _encode_batch(batch, params.vocab)
    _, grads = _loss_and_grads(backend_kind, params.flat(), encoded, volume)
    return grads


def infer_logits(backend_kind: str, params: BoxLMParams | RetainParams,
                 patient: PredictionInstance,
                 volume: VolumeConfig = VolumeConfig()) -> LogitVector:
    """Dispatch to the matching scorer; errors if kind and params disagree."""
    _check_kind(backend_kind)
    if backend_kind == "box":
        if not isinstance(params, BoxLMParams):
            raise BackendError("box backend requires BoxLMParams")
        return boxlm_logits(patient, params, volume)
    if not isinstance(params, RetainParams):
        raise BackendError("retain backend requires RetainParams")
    return retain_logits(patient, params)


@dataclass
class TrainedModel:
    """A trained backend plus everything needed to reuse it: parameters,
    per-epoch loss history (epochs+1 entries, first is pre-training), and
    the configs that produced it."""

    backend: str
    params: BoxLMParams | RetainParams
    losses: list[float]
    config: TrainConfig
    volume: VolumeConfig = VolumeConfig()

    @property
    def vocab(self) -> tuple[str, ...]:
        return self.params.vocab

    def logit_vector(self, patient: PredictionInstance) -> LogitVector:
        return infer_logits(self.backend, self.params, patient, self.volume)


def train(backend_kind: str, dataset: Dataset, ontology: Ontology,
          cfg: TrainConfig = TrainConfig(),
          volume: VolumeConfig = VolumeConfig()) -> TrainedModel:
    """Train a scorer on every visit transition in the dataset.

    Deterministic given cfg.seed: initialization, epoch shuffles, and the
    update schedule all derive from one seeded generator.
    """
    _check_kind(backend_kind)
    instances = build_instances(dataset, all_prefixes=True)
    if not instances:
        raise BackendError("dataset yields no trainable instances")
    vocab = ontology.ccs_codes
    encoded = _encode_batch(instances, vocab)

    rng = np.random.default_rng(cfg.seed)
    if backend_kind == "box":
        flat = init_box_params(vocab, cfg.d, rng)
    else:
        flat = init_retain_params(vocab, cfg.d, rng)

    state = adam_init(flat)
    losses = [_batch_loss(backend_kind, flat, encoded, volume, cfg.batch_size)]
    for _ in range(cfg.epochs):
        order = rng.permutation(len(encoded))
        for start in range(0, len(order), cfg.batch_size):
            chunk = [encoded[i] for i in order[start:start + cfg.batch_size]]
            _, grads = _loss_and_grads(backend_kind, flat, chunk, volume)
            adam_step(flat, grads, state, cfg.learning_rate,
                      cfg.adam_betas, cfg.adam_eps)
        losses.append(_batch_loss(backend_kind, flat, encoded, volume, cfg.batch_size))

    return TrainedModel(backend=backend_kind,
                        params=_params_obj(backend_kind, vocab, flat),
                        losses=losses, config=cfg, volume=volume)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    n_checked: int


def grad_check(backend_kind: str, params: BoxLMParams | RetainParams,
               batch: Sequence[PredictionInstance],
               volume: VolumeConfig = VolumeConfig(),
               h: float = 1e-4, floor: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients against central finite differences over
    every parameter element. Relative error uses max(|a|, |fd|, floor) as
    the denominator; exactly matching zeros count as zero error."""
    _check_kind(backend_kind)
    encoded = _encode_batch(batch, params.vocab)
    flat = {k: v.copy() for k, v in params.flat().items()}
    _, analytic = _loss_and_grads(backend_kind, flat, encoded, volume)

    worst, worst_key, checked = 0.0, "", 0
    for key in sorted(flat):
        arr = flat[key]
        grad = analytic[key]
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            mi = it.multi_index
            orig = arr[mi]
            arr[mi] = orig + h
            up = _batch_loss(backend_kind, flat, encoded, volume, len(encoded))
            arr[mi] = orig - h
            down = _batch_loss(backend_kind, flat, encoded, volume, len(encoded))
            arr[mi] = orig
            fd = (up - down) / (2.0 * h)
            a = float(grad[mi])
            if a == 0.0 and fd == 0.0:
                err = 0.0
            else:
                err = abs(a - fd) / max(abs(a), abs(fd), floor)
            checked += 1
            if err > worst:
                worst, worst_key = err, key
            it.iternext()
    return GradCheckReport(max_rel_error=worst, worst_param=worst_key,
                           n_checked=checked)


# ---------------------------------------------------------------------------
# Versioned JSON parameter serialization
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def _expected_shapes(backend_kind: str, c: int, d: int) -> dict[str, tuple[int, ...]]:
    if backend_kind == "box":
        return {
            "center": (c, d), "offset_raw": (c, d),
            "attn_query": (d,), "visit_weight_vec": (d,),
        }
    shapes: dict[str, tuple[int, ...]] = {"embed": (c, d)}
    for prefix in ("rnn_alpha", "rnn_beta"):
        for name in ("w_z", "u_z", "w_r", "u_r", "w_h", "u_h"):
            shapes[f"{prefix}/{name}"] = (d, d)
        for name in ("b_z", "b_r", "b_h"):
            shapes[f"{prefix}/{name}"] = (d,)
    shapes.update({"w_alpha": (d,), "W_beta": (d, d), "W_o": (c, d), "b_o": (c,)})
    return shapes


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "backend": model.backend,
        "d": model.params.d,
        "seed": model.config.seed,
        "vocab": list(model.vocab),
        "losses": [float(x) for x in model.losses],
        "train_config": {
            "epochs": model.config.epochs,
            "learning_rate": model.config.learning_rate,
            "batch_size": model.config.batch_size,
            "seed": model.config.seed,
            "d": model.config.d,
            "adam_betas": list(model.config.adam_betas),
            "adam_eps": model.config.adam_eps,
        },
        "volume": {"beta": model.volume.beta, "gamma": model.volume.gamma,
                   "eps": model.volume.eps},
        "tensors": {k: v.tolist() for k, v in sorted(model.params.flat().items())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path: str | Path, ontology: Ontology | None = None) -> TrainedModel:
    """Load a serialized model, validating tensor shapes and values (and, if
    an ontology is given, the vocabulary) before use."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BackendError(f"model file is not valid JSON: {exc}") from None
    if doc.get("format_version") != FORMAT_VERSION:
        raise BackendError(f"unsupported params format {doc.get('format_version')!r}")
    backend_kind = doc.get("backend")
    _check_kind(backend_kind)
    try:
        vocab = tuple(doc["vocab"])
        d = int(doc["d"])
        tensors = doc["tensors"]
    except KeyError as exc:
        raise BackendError(f"model file has no {exc.args[0]!r} entry") from None
    if ontology is not None and vocab != ontology.ccs_codes:
        raise BackendError("model vocabulary does not match the ontology")

    expected = _expected_shapes(backend_kind, len(vocab), d)
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise BackendError(f"tensor keys mismatch (missing {missing}, extra {extra})")
    flat: ParamTree = {}
    for key, want in expected.items():
        arr = np.asarray(tensors[key], dtype=float)
        if arr.shape != want:
            raise BackendError(f"tensor {key} has shape {arr.shape}, expected {want}")
        if not np.all(np.isfinite(arr)):
            raise BackendError(f"tensor {key} has non-finite values")
        flat[key] = arr

    tc = doc.get("train_config", {})
    cfg = TrainConfig(
        epochs=int(tc.get("epochs", 0)),
        learning_rate=float(tc.get("learning_rate", 0.0)),
        batch_size=int(tc.get("batch_size", 1)),
        seed=int(doc.get("seed", 0)),
        d=d,
        adam_betas=tuple(tc.get("adam_betas", (0.9, 0.999))),
        adam_eps=float(tc.get("adam_eps", 1e-8)),
    )
    vol = doc.get("volume", {})
    volume = VolumeConfig(beta=float(vol.get("beta", 0.1)),
                          gamma=float(vol.get("gamma", 0.5772156649)),
                          eps=float(vol.get("eps", 1e-30)))
    return TrainedModel(backend=backend_kind,
                        params=_params_obj(backend_kind, vocab, flat),
                        losses=[float(x) for x in doc.get("losses", [])],
                        config=cfg, volume=volume)
