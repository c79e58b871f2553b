"""Trainable scoring backends over the CCS vocabulary.

Two interchangeable scorers ("box" and "retain") take the same packed
ragged batches and share a training loop (mini-batch Adam on mean
multi-label BCE), a finite-difference gradient checker, batched inference
over a sequence of instances, and a versioned JSON parameter format.

A model is its kind, its vocabulary and one flat tree of named tensors
(`ParamTree`). The tensor names and shapes come from the kind's seeded
initializer alone; `load_model` checks a file against them.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .. import asdict, from_json, json_value, mean, record, replace
from ..ehr import Dataset, Ontology, PredictionInstance, build_instances
from .base import (
    BackendError,
    EncodedInstance,
    TrainConfig,
    encode_batch,
    pack_instances,
)
from .boxes import VolumeConfig, box_backward, box_forward, boxlm_logits, init_box_params
from .numerics import (
    ADAM_BETAS,
    ADAM_EPS,
    ParamTree,
    adam_init,
    adam_step,
    bce_with_logits,
    bce_with_logits_grad,
    zeros_like_tree,
)
from .retain import init_retain_params, retain_backward, retain_forward, retain_logits


@record(frozen=True)
class Backend:
    """One scorer kind: its seeded initializer (vocab, d, rng), which names
    and shapes its tensors, and its kernels over a packed batch: the forward
    (flat, batch, volume) to logits and a cache, the backward (flat, batch,
    cache, dlogits, volume, grads), and inference (patients, vocab, flat,
    volume) to the forward's (n, vocab) logits."""

    init: Callable[..., ParamTree]
    forward: Callable[..., tuple[np.ndarray, dict]]
    backward: Callable[..., None]
    logits: Callable[..., np.ndarray]


# The kernels are looked up as module globals at call time, so a wrapper
# installed on this module sees every call. Retain has no volume.
BACKENDS: dict[str, Backend] = {
    "box": Backend(init_box_params, lambda *args: box_forward(*args),
                   lambda *args: box_backward(*args), lambda *args: boxlm_logits(*args)),
    "retain": Backend(
        init_retain_params,
        lambda flat, batch, volume: retain_forward(flat, batch),
        lambda flat, batch, cache, dlogits, volume, grads:
            retain_backward(flat, batch, cache, dlogits, grads),
        lambda patients, vocab, flat, volume: retain_logits(patients, vocab, flat)),
}


def _backend(kind: str) -> Backend:
    try:
        return BACKENDS[kind]
    except (KeyError, TypeError):
        raise BackendError(f"unknown backend kind {kind!r}") from None


def _chunks(items: Sequence, size: int) -> Iterator[Sequence]:
    """`items` in order, in consecutive slices of at most `size`."""
    return (items[start:start + size] for start in range(0, len(items), size))


def _losses(backend: Backend, flat: ParamTree, encoded: Sequence[EncodedInstance],
            volume: VolumeConfig, grads: ParamTree | None = None,
            scale: float = 1.0) -> list[float]:
    """Each instance's mean BCE, in order, from one packed batch. With
    `grads`, also accumulate the gradient of `scale` times their sum."""
    batch = pack_instances(encoded)
    logits, cache = backend.forward(flat, batch, volume)
    if not np.all(np.isfinite(logits)):
        raise BackendError("non-finite logit in training: the parameters diverged "
                           "(lower train.learning_rate)")
    if grads is not None:
        dlogits = bce_with_logits_grad(logits, batch.targets) * scale
        backend.backward(flat, batch, cache, dlogits, volume, grads)
    return bce_with_logits(logits, batch.targets).tolist()


def _batch_loss(backend: Backend, flat: ParamTree,
                encoded: Sequence[EncodedInstance], volume: VolumeConfig,
                chunk_size: int) -> float:
    """Mean loss over `encoded`, scored `chunk_size` instances at a time."""
    return mean([loss for chunk in _chunks(encoded, chunk_size)
                  for loss in _losses(backend, flat, chunk, volume)])


def _grads(backend: Backend, flat: ParamTree, encoded: Sequence[EncodedInstance],
           volume: VolumeConfig) -> ParamTree:
    """Exact gradient of the mean loss over `encoded`."""
    grads = zeros_like_tree(flat)
    _losses(backend, flat, encoded, volume, grads, 1.0 / len(encoded))
    return grads


def gradients(backend_kind: str, vocab: tuple[str, ...], tensors: ParamTree,
              batch: Sequence[PredictionInstance],
              volume: VolumeConfig = VolumeConfig()) -> ParamTree:
    """Exact gradient of the mean BCE loss over the batch, keyed like
    tensors."""
    backend = _backend(backend_kind)
    if not batch:
        raise BackendError("gradient batch is empty")
    return _grads(backend, tensors, encode_batch(batch, vocab), volume)


def infer_logits(backend_kind: str, vocab: tuple[str, ...], tensors: ParamTree,
                 patients: Sequence[PredictionInstance],
                 volume: VolumeConfig = VolumeConfig()) -> np.ndarray:
    """The (n, vocab) logits of n patients, scored as one batch by the
    kind's scorer."""
    return _backend(backend_kind).logits(patients, vocab, tensors, volume)


@record
class TrainedModel:
    """A trained backend plus everything needed to reuse it: its vocabulary
    and tensors, its loss history and the configs that produced it.

    `losses` has epochs+1 entries, each a mean BCE over all training
    instances. The first is scored before training; entry e is the mean of
    each instance's loss in the batch it trained in during epoch e, so at
    the parameters just before that batch's update."""

    backend: str
    vocab: tuple[str, ...]
    tensors: ParamTree
    losses: list[float]
    config: TrainConfig
    volume: VolumeConfig = VolumeConfig()

    def logits(self, patients: Sequence[PredictionInstance]) -> np.ndarray:
        """The (n, vocab) logits of n patients, scored `config.batch_size` at
        a time."""
        chunks = [infer_logits(self.backend, self.vocab, self.tensors, chunk, self.volume)
                  for chunk in _chunks(patients, self.config.batch_size)]
        return np.concatenate(chunks) if chunks else np.empty((0, len(self.vocab)))

    def rankings(self, patients: Sequence[PredictionInstance]) -> list[list[int]]:
        """Each patient's vocabulary positions from the highest logit down.
        The vocabulary is sorted, so the stable sort breaks ties by code."""
        logits = self.logits(patients)
        if not np.all(np.isfinite(logits)):
            raise BackendError("non-finite logit")
        return np.argsort(-logits, axis=1, kind="stable").tolist()


def train(backend_kind: str, dataset: Dataset, ontology: Ontology,
          cfg: TrainConfig = TrainConfig(),
          volume: VolumeConfig = VolumeConfig()) -> TrainedModel:
    """Train a scorer on every visit transition in the dataset.

    Deterministic given cfg.seed: initialization, epoch shuffles, and the
    update schedule all derive from one seeded generator.
    """
    backend = _backend(backend_kind)
    instances = build_instances(dataset, all_prefixes=True)
    if not instances:
        raise BackendError("dataset yields no trainable instances")
    vocab = ontology.ccs_codes
    encoded = encode_batch(instances, vocab)

    rng = np.random.default_rng(cfg.seed)
    flat = backend.init(vocab, cfg.d, rng)

    state = adam_init(flat)
    losses = [_batch_loss(backend, flat, encoded, volume, cfg.batch_size)]
    # Diverging parameters overflow the kernels; the finite-logit check in
    # `_losses` reports that as one error, so numpy's warnings stay quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            # An epoch's loss is each instance's loss in the batch it trained
            # in, averaged in instance order as `_batch_loss` does: an
            # instance's loss does not depend on its batch-mates, so at
            # learning rate 0 every entry equals losses[0] bit for bit.
            seen = [0.0] * len(encoded)
            order = rng.permutation(len(encoded))
            for picks in _chunks(order, cfg.batch_size):
                grads = zeros_like_tree(flat)
                chunk = [encoded[i] for i in picks]
                for i, loss in zip(picks, _losses(backend, flat, chunk, volume, grads,
                                                  1.0 / len(picks))):
                    seen[i] = loss
                adam_step(flat, grads, state, cfg.learning_rate)
            losses.append(mean(seen))

    return TrainedModel(backend=backend_kind, vocab=vocab, tensors=flat,
                        losses=losses, config=cfg, volume=volume)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@record(frozen=True)
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    n_checked: int


def grad_check(backend_kind: str, vocab: tuple[str, ...], tensors: ParamTree,
               batch: Sequence[PredictionInstance],
               volume: VolumeConfig = VolumeConfig(),
               h: float = 1e-4, floor: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients against central finite differences over
    every parameter element. Relative error uses max(|a|, |fd|, floor) as
    the denominator; exactly matching zeros count as zero error."""
    backend = _backend(backend_kind)
    encoded = encode_batch(batch, vocab)
    flat = {k: v.copy() for k, v in tensors.items()}
    analytic = _grads(backend, flat, encoded, volume)

    worst, worst_key, checked = 0.0, "", 0
    for key in sorted(flat):
        arr = flat[key]
        grad = analytic[key]
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            mi = it.multi_index
            orig = arr[mi]
            arr[mi] = orig + h
            up = _batch_loss(backend, flat, encoded, volume, len(encoded))
            arr[mi] = orig - h
            down = _batch_loss(backend, flat, encoded, volume, len(encoded))
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


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "backend": model.backend,
        "d": model.config.d,
        "seed": model.config.seed,
        "vocab": list(model.vocab),
        "losses": [float(x) for x in model.losses],
        "train_config": {**asdict(model.config), "adam_betas": list(ADAM_BETAS),
                         "adam_eps": ADAM_EPS},
        "volume": asdict(model.volume),
        "tensors": {k: v.tolist() for k, v in sorted(model.tensors.items())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_model(path: str | Path, ontology: Ontology | None = None) -> TrainedModel:
    """Load a serialized model, validating tensor shapes and values (and, if
    an ontology is given, the vocabulary) before use. Every defect, a value
    of the wrong JSON type included, raises BackendError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        version = json_value(int, doc["format_version"], "format_version")
        if version != FORMAT_VERSION:
            raise BackendError(f"unsupported params format {version!r}")
        backend_kind = doc.get("backend")
        backend = _backend(backend_kind)
        vocab = tuple(doc["vocab"])
        d = json_value(int, doc["d"], "d")
        tensors = doc["tensors"]
        if ontology is not None and vocab != ontology.ccs_codes:
            raise BackendError("model vocabulary does not match the ontology")

        # Tensor shapes are read off an initialization at c=2, d=3 and mapped
        # to this vocabulary and width, so a corrupt d allocates nothing.
        probe = backend.init(("a", "b"), 3, np.random.default_rng(0))
        expected = {k: tuple({2: len(vocab), 3: d}[n] for n in v.shape)
                    for k, v in probe.items()}
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

        # The top-level d and seed win over the recorded config's and are
        # checked under their own keys; the Adam constants are recorded, not
        # configured.
        tc = dict(json_value(dict, doc.get("train_config", {}), "train_config"))
        for name in ("d", "seed", "adam_betas", "adam_eps"):
            tc.pop(name, None)
        cfg = replace(from_json(TrainConfig, tc, "train_config"),
                      d=d, seed=json_value(int, doc.get("seed", 0), "seed"))
        volume = from_json(VolumeConfig, doc.get("volume", {}), "volume")
        losses = [float(json_value(float, x, f"losses[{i}]"))
                  for i, x in enumerate(json_value(list, doc.get("losses", []), "losses"))]
        return TrainedModel(backend=backend_kind, vocab=vocab, tensors=flat,
                            losses=losses, config=cfg, volume=volume)
    except BackendError:
        raise
    except json.JSONDecodeError as exc:
        raise BackendError(f"model file is not valid JSON: {exc}") from None
    except KeyError as exc:
        raise BackendError(f"model file has no {exc.args[0]!r} entry") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise BackendError(f"malformed model file: {exc}") from None
