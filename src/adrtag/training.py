"""Adam optimization, the two training phases, batching, and checkpoints."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .encoding import TagLabel
from .model import GATES, AdrModel
from .numerics import NumericalError, Parameter

CHECKPOINT_MAGIC = b"ADRCKPT1"


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or incompatible."""


@dataclass
class AdamConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")


@dataclass
class TrainConfig:
    """Defaults are phase 2's (supervised tagging)."""

    batch_size: int = 1
    epochs: int = 5
    max_len: int = 40
    seed: int = 0
    adam: AdamConfig = field(default_factory=AdamConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def pretrain_config(**kw) -> TrainConfig:
    kw.setdefault("batch_size", 128)
    kw.setdefault("epochs", 30)
    return TrainConfig(**kw)


def supervised_config(**kw) -> TrainConfig:
    return TrainConfig(**kw)


ADAM_CHUNK = 32768  # elements per slice of the update, so its operands stay in cache


def adam_step(param: Parameter, config: AdamConfig, t: int) -> None:
    """One bias-corrected Adam update; zeroes the gradient afterwards."""
    if t < 1:
        raise ValueError("step index must be >= 1")
    if not np.all(np.isfinite(param.grad)):
        raise NumericalError(f"non-finite gradient for parameter {param.name}")
    # In place, in the textbook order: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    # w -= (lr*m_hat) / (sqrt(v_hat) + eps); the spent gradient is the second scratch.
    # Every operation is element-wise, so slicing changes no result.
    w, m, v, grad = (
        a.reshape(-1) for a in (param.value, param.adam_m, param.adam_v, param.grad)
    )
    scratch = np.empty(min(ADAM_CHUNK, grad.size))
    for start in range(0, grad.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        g, mc, vc = grad[chunk], m[chunk], v[chunk]
        s = scratch[: len(g)]
        mc *= config.beta1
        mc += np.multiply(1.0 - config.beta1, g, out=s)
        vc *= config.beta2
        np.multiply(1.0 - config.beta2, g, out=s)
        vc += np.multiply(s, g, out=s)
        np.divide(mc, 1.0 - config.beta1**t, out=s)
        s *= config.learning_rate
        np.divide(vc, 1.0 - config.beta2**t, out=g)
        np.sqrt(g, out=g)
        g += config.epsilon
        w[chunk] -= np.divide(s, g, out=s)
    param.zero_grad()


class Adam:
    """Tracks the shared step counter for a fixed parameter group, whose
    moments start from zero."""

    def __init__(self, params: Sequence[Parameter], config: AdamConfig = None):
        self.params = list(params)
        self.config = config or AdamConfig()
        self.t = 0
        for p in self.params:  # fresh moments; in place, so no memory is added
            p.adam_m.fill(0.0)
            p.adam_v.fill(0.0)

    def step(self):
        self.t += 1
        for p in self.params:
            adam_step(p, self.config, self.t)


INFERENCE_BATCH = 64  # sequences per forward when scoring held-out or test data
HELDOUT_DENOMINATOR = 10  # about one example in this many is held out


def pad_batch(
    examples: Sequence[Sequence[int]], max_len: int, pad_index: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Right-pad index sequences into a (B, T) matrix, T = min(max_len, longest
    sequence); longer sequences are truncated. Masked steps contribute zeros."""
    if any(len(e) == 0 for e in examples):
        raise ValueError("cannot pad an empty example")
    B = len(examples)
    width = min(max_len, max((len(e) for e in examples), default=0))
    out = np.full((B, width), pad_index, dtype=np.int64)
    lengths = np.empty(B, dtype=np.int64)
    for i, seq in enumerate(examples):
        trimmed = list(seq)[:max_len]
        out[i, : len(trimmed)] = trimmed
        lengths[i] = len(trimmed)
    return out, lengths


def heldout_split(ids: Sequence[str]):
    """Deterministic ~1/HELDOUT_DENOMINATOR held-out split keyed on a stable
    hash of the example id (independent of corpus order and process salt)."""
    train, held = [], []
    for i, sid in enumerate(ids):
        digest = hashlib.md5(str(sid).encode("utf-8")).digest()
        (held if digest[0] % HELDOUT_DENOMINATOR == 0 else train).append(i)
    return train, held


PretrainExample = Tuple[List[int], int, str]  # token indices, drug label, tweet id
TagExample = Tuple[List[int], List[int], str]  # token indices, tag ids, tweet id


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def _check_loss(loss: float, phase: str, epoch: int, chosen) -> None:
    """Fail before the backward pass when the forward pass lost finiteness."""
    if not math.isfinite(loss):
        ids = ", ".join(str(c[2]) for c in chosen)
        raise NumericalError(
            f"{phase} epoch {epoch}: non-finite loss on the batch of tweets {ids}"
        )


def pretrain(
    examples: Sequence[PretrainExample],
    model: AdrModel,
    config: TrainConfig,
) -> List[dict]:
    """Phase 1: minimize masked-drug prediction cross-entropy.

    Trains the encoder and the drug head; the tag head is untouched. Returns
    one log record per epoch with the held-out drug accuracy.
    """
    if not examples:
        raise ValueError("pretraining corpus is empty")
    if model.drug_count < 2:
        raise ValueError("drug catalog must contain at least 2 names")
    rng = np.random.default_rng(config.seed)
    train_idx, held_idx = heldout_split([e[2] for e in examples])
    if not train_idx:
        train_idx, held_idx = list(range(len(examples))), []
    optimizer = Adam(model.drug_parameters(), config.adam)
    log = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_idx))
        total_loss = 0.0
        total_n = 0
        for batch in _batches(order, config.batch_size):
            chosen = [examples[train_idx[i]] for i in batch]
            idx, lengths = pad_batch([c[0] for c in chosen], config.max_len)
            labels = np.array([c[1] for c in chosen])
            loss, cache = model.drug_loss(idx, lengths, labels)
            _check_loss(loss, "pretrain", epoch, chosen)
            model.backward_drug(cache)
            optimizer.step()
            total_loss += loss * len(chosen)
            total_n += len(chosen)
        record = {
            "phase": "pretrain",
            "epoch": epoch,
            "mean_loss": total_loss / max(total_n, 1),
            "accuracy": _drug_accuracy(model, examples, held_idx, config.max_len),
            "wall_time": time.perf_counter() - t0,
        }
        log.append(record)
    return log


def _drug_accuracy(model, examples, indices, max_len) -> Optional[float]:
    if not indices:
        return None
    correct = 0
    for start in range(0, len(indices), INFERENCE_BATCH):
        chosen = [examples[i] for i in indices[start : start + INFERENCE_BATCH]]
        idx, lengths = pad_batch([c[0] for c in chosen], max_len)
        probs = model.predict_drug_batch(idx, lengths)
        correct += int((probs.argmax(axis=1) == [c[1] for c in chosen]).sum())
    return correct / len(indices)


def train_supervised(
    data: Sequence[TagExample],
    model: AdrModel,
    config: TrainConfig,
) -> List[dict]:
    """Phase 2: minimize the summed per-token tagging cross-entropy.

    Reuses (and mutates) the same encoder parameter objects phase 1 trained;
    the drug head is untouched. Optimizer moments start fresh.
    """
    if not data:
        raise ValueError("labeled training set is empty")
    for ids, tags, sid in data:
        if len(ids) != len(tags):
            raise ValueError(f"token/tag misalignment in record {sid!r}")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.tag_parameters(), config.adam)
    log = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(data))
        total_loss = 0.0
        correct = 0
        scored = 0
        for batch in _batches(order, config.batch_size):
            chosen = [data[i] for i in batch]
            idx, lengths = pad_batch([c[0] for c in chosen], config.max_len)
            tags, _ = pad_batch(
                [c[1] for c in chosen], config.max_len, pad_index=int(TagLabel.PAD)
            )
            loss, cache = model.tag_loss(idx, lengths, tags)
            _check_loss(loss, "supervised", epoch, chosen)
            pred = cache.probs.argmax(axis=2)
            hit = (pred == tags) * (cache.valid > 0)
            correct += int(hit.sum())
            scored += int(cache.valid.sum())
            model.backward_tags(cache)
            optimizer.step()
            total_loss += loss * len(chosen)
        log.append(
            {
                "phase": "supervised",
                "epoch": epoch,
                "mean_loss": total_loss / len(data),
                "accuracy": correct / max(scored, 1),
                "wall_time": time.perf_counter() - t0,
            }
        )
    return log


def write_log(path, records: Sequence[dict]) -> None:
    """Line-delimited JSON training log."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Checkpoints: magic, json header (shapes, seed, metadata), raw float64 bytes.
# The format is fully deterministic, so identical models produce identical
# files byte for byte.
# ---------------------------------------------------------------------------


def _model_arrays(model: AdrModel):
    """(name, array) pairs in file order, for saving and loading. Encoder
    directions are stored per gate as row-block views ``fwd.w_u``, ``fwd.i_u``,
    ``fwd.b_u``, ..., ``bwd.b_o``; reading into a view fills the fused matrix."""
    arrays = [("embeddings", model.embeddings)]
    for cell in (model.encoder.forward_cell, model.encoder.backward_cell):
        H = cell.hidden
        for k, g in enumerate(GATES):
            arrays += [(f"{p.name}_{g}", p.value[k * H : (k + 1) * H]) for p in cell.params()]
    heads = model.drug_head.params() + model.tag_head.params()
    return arrays + [(p.name, p.value) for p in heads]


def save_checkpoint(model: AdrModel, path) -> None:
    """Write a temporary file beside ``path``, then rename it over ``path``."""
    arrays = _model_arrays(model)
    header = {
        "version": 1,
        "seed": model.seed,
        "hidden": model.hidden,
        "emb": model.emb,
        "drug_count": model.drug_count,
        "pooling": model.pooling,
        "gate_biases": model.gate_biases,
        "vocab_tokens": model.vocab_tokens,
        "drug_names": model.drug_names,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for _, a in arrays:
                fh.write(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_HEADER_FIELDS = {
    **dict.fromkeys(("hidden", "emb", "drug_count", "seed"), _is_int),
    "pooling": lambda v: isinstance(v, str),
    "gate_biases": lambda v: isinstance(v, bool),
    "arrays": lambda v: isinstance(v, list) and all(
        isinstance(e, dict) and isinstance(e.get("name"), str)
        and isinstance(e.get("shape"), list)
        and all(_is_int(d) and d >= 0 for d in e["shape"])
        for e in v
    ),
    **dict.fromkeys(("vocab_tokens", "drug_names"), lambda v: v is None or isinstance(v, list)),
}


def load_checkpoint(path, expected_hidden: Optional[int] = None) -> AdrModel:
    """One pass: sizes are checked against the file before any array is
    allocated, and each array is read straight into the model's storage."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        hlen = int.from_bytes(fh.read(8), "little")
        if hlen > size - len(CHECKPOINT_MAGIC) - 8:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: corrupt header")
        if header.get("version") != 1:
            raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")
        for key, valid in _HEADER_FIELDS.items():
            if key not in header or not valid(header[key]):
                raise CheckpointError(f"{path}: header field {key!r} is missing or malformed")
        if expected_hidden is not None and header["hidden"] != expected_hidden:
            raise CheckpointError(
                f"{path}: checkpoint hidden size {header['hidden']} != expected {expected_hidden}"
            )
        listed = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
        described = fh.tell() + 8 * sum(math.prod(shape) for _, shape in listed)
        if size != described:
            problem = "truncated" if size < described else "trailing bytes after arrays"
            raise CheckpointError(f"{path}: {problem}: {size} bytes, header says {described}")
        # The file size bounds the listed shapes; tie the header's sizes to
        # them before the constructor allocates anything from those sizes.
        shapes = dict(listed)
        H, E, vocab = header["hidden"], header["emb"], header["vocab_tokens"]
        implied = {"fwd.w_u": (H, H), "fwd.i_u": (H, E), "drug.w": (header["drug_count"], 2 * H)}
        if vocab is not None:
            implied["embeddings"] = (len(vocab), E)
        for name, shape in implied.items():
            if shapes.get(name) != shape:
                raise CheckpointError(
                    f"{path}: header implies {name} of shape {shape}, "
                    f"array list gives {shapes.get(name)}"
                )
        rows = listed[0][1][0] if listed and listed[0][1] else 0
        kwargs = {k: header[k] for k in _HEADER_FIELDS if k not in ("emb", "arrays")}
        try:
            model = AdrModel(np.empty((rows, header["emb"])), **kwargs)
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        arrays = _model_arrays(model)
        for found, want in itertools.zip_longest(listed, [(n, a.shape) for n, a in arrays]):
            if found != want:
                raise CheckpointError(f"{path}: file array {found} != model array {want}")
        for name, a in arrays:
            if fh.readinto(a) != a.nbytes:
                raise CheckpointError(f"{path}: truncated while reading {name}")
            if not np.isfinite(a).all():
                raise CheckpointError(f"{path}: non-finite value in {name}")
    return model
