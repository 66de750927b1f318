"""Adam optimization, the two training phases, batching, and checkpoints."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import mmap
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import CheckpointError, NumericalError
from .files import atomic_write
from .model import GATES, AdrModel
from .numerics import Parameter

CHECKPOINT_MAGIC = b"ADRCKPT1"


@dataclass
class TrainConfig:
    """Defaults are phase 2's (supervised tagging)."""

    batch_size: int = 1
    epochs: int = 5
    max_len: int = 40
    seed: int = 0
    learning_rate: float = 0.001

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("epochs", 0), ("max_len", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")


def pretrain_config(**kw) -> TrainConfig:
    kw.setdefault("batch_size", 128)
    kw.setdefault("epochs", 30)
    return TrainConfig(**kw)


def supervised_config(**kw) -> TrainConfig:
    return TrainConfig(**kw)


# Kingma & Ba 2015 (arXiv:1412.6980): the textbook values, which both phases
# keep; only the learning rate is a setting.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

ADAM_CHUNK = 32768  # elements per slice of the update, so its operands stay in cache


class Adam:
    """Bias-corrected Adam (Kingma & Ba 2015) over a fixed parameter group,
    applied to each parameter as soon as a backward pass hands over its
    gradient, so a step never holds the group's whole gradient.

    The optimizer owns the step counter ``t``, the moments ``m`` and ``v``,
    one array per parameter, one gradient workspace the size of the group's
    largest parameter, and one chunk of update scratch. The first
    :meth:`update` allocates the scratch and the moments, the moments as
    zeros, so every optimizer starts from zero moments; :meth:`release`
    drops all three."""

    def __init__(self, params: Sequence[Parameter], learning_rate: float):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.t = 0
        self.m: List[np.ndarray] = []
        self.v: List[np.ndarray] = []
        self.workspace: Optional[np.ndarray] = None
        self.scratch: Optional[np.ndarray] = None
        self._slot = {id(p): k for k, p in enumerate(self.params)}

    def update(self, backward):
        """One step over the group: ``backward(self)`` hands each
        parameter's gradient to :meth:`step`."""
        if not self.m:
            self.m = [np.zeros_like(p.value) for p in self.params]
            self.v = [np.zeros_like(p.value) for p in self.params]
            self.scratch = np.empty(min(ADAM_CHUNK, max(p.value.size for p in self.params)))
        self.t += 1
        backward(self)

    def buffer(self, p: Parameter) -> np.ndarray:
        """A view of the workspace, shaped like ``p``, to write its gradient
        into; it is valid until the next call."""
        if self.workspace is None:
            self.workspace = np.empty(max(q.value.size for q in self.params))
        return self.workspace[: p.value.size].reshape(p.value.shape)

    def step(self, param: Parameter, grad: np.ndarray):
        """Update ``param`` with its gradient ``grad``, which the update
        spends as scratch. No weight of ``param`` changes when the finite
        check fails.

        The check is one dot product, the squared norm: a NaN or an infinity
        makes it non-finite, and so does a norm above about 1.3e154, whose
        square overflows. An entry that large would overflow the
        bias-corrected ``v``, which is ``g*g`` at the first step, and
        silently zero its update. An update that overflows raises
        NumericalError too, after the chunks before it have changed."""
        k = self._slot[id(param)]
        t = self.t
        w, m, v, grad = (a.reshape(-1) for a in (param.value, self.m[k], self.v[k], grad))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.dot(grad, grad))
        if not finite:
            raise NumericalError(f"non-finite gradient for parameter {param.name}")
        # In place, in the textbook order: m = b1*m + (1-b1)*g,
        # v = b2*v + ((1-b2)*g)*g, w -= (lr*m_hat) / (sqrt(v_hat) + eps);
        # the spent gradient is the second scratch.
        # Every operation is element-wise, so slicing changes no result.
        try:
            with np.errstate(over="raise", invalid="raise"):
                for start in range(0, grad.size, ADAM_CHUNK):
                    chunk = slice(start, start + ADAM_CHUNK)
                    g, mc, vc = grad[chunk], m[chunk], v[chunk]
                    s = self.scratch[: len(g)]
                    mc *= BETA1
                    mc += np.multiply(1.0 - BETA1, g, out=s)
                    vc *= BETA2
                    np.multiply(1.0 - BETA2, g, out=s)
                    vc += np.multiply(s, g, out=s)
                    np.divide(mc, 1.0 - BETA1**t, out=s)
                    s *= self.learning_rate
                    np.divide(vc, 1.0 - BETA2**t, out=g)
                    np.sqrt(g, out=g)
                    g += EPSILON
                    w[chunk] -= np.divide(s, g, out=s)
        except FloatingPointError as exc:
            raise NumericalError(f"update of parameter {param.name} overflowed: {exc}") from exc

    def release(self):
        """Drop the moments, the workspace and the scratch: only weights stay."""
        self.m, self.v, self.workspace, self.scratch = [], [], None, None


INFERENCE_BATCH = 64  # sequences per forward when scoring held-out or test data
HELDOUT_DENOMINATOR = 10  # about one example in this many is held out


def pad_batch(examples: Sequence[Sequence[int]], max_len: int) -> Tuple[np.ndarray, np.ndarray]:
    """Right-pad index sequences with 0, the ``<PAD>`` token id, into a (B, T)
    matrix, T = min(max_len, longest sequence); longer sequences are
    truncated."""
    if any(len(e) == 0 for e in examples):
        raise ValueError("cannot pad an empty example")
    B = len(examples)
    width = min(max_len, max((len(e) for e in examples), default=0))
    out = np.zeros((B, width), dtype=np.int64)
    lengths = np.empty(B, dtype=np.int64)
    for i, seq in enumerate(examples):
        trimmed = list(seq)[:max_len]
        out[i, : len(trimmed)] = trimmed
        lengths[i] = len(trimmed)
    return out, lengths


def predict_chunks(predict, records: Sequence[tuple], max_len: Optional[int] = None):
    """Yield ``(chunk, lengths, predict(ids, lengths))`` per chunk of ``INFERENCE_BATCH``
    ``records`` (token ids first, tweet id last), in order, padded to its longest record
    or to ``max_len``; a NumericalError from ``predict`` names the chunk's tweets."""
    for start in range(0, len(records), INFERENCE_BATCH):
        chunk = records[start : start + INFERENCE_BATCH]
        ids, lengths = pad_batch([r[0] for r in chunk], max_len or max(len(r[0]) for r in chunk))
        try:
            out = predict(ids, lengths)
        except NumericalError as exc:
            names = ", ".join(str(r[-1]) for r in chunk)
            raise NumericalError(f"{exc} on the tweets {names}") from exc
        yield chunk, lengths, out


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


def _train(phase: str, params: Sequence[Parameter], config: TrainConfig,
           items: Sequence[tuple], step, accuracy) -> List[dict]:
    """The loop both phases share. Each epoch visits ``items`` in a fresh
    permutation from ``config.seed``, one Adam step over ``params`` a batch.
    ``step(chosen)`` runs a batch's forward pass and returns its loss and the
    backward pass to run, which takes the optimizer as its gradient sink. A
    non-finite loss, an overflow, or a gradient that Adam refuses stops
    training, naming the phase, the epoch and the tweets or the held-out
    pass. On every exit the optimizer releases the training state."""
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(params, config.learning_rate)
    log = []
    try:
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            total_loss = 0.0
            for batch in _batches(rng.permutation(len(items)), config.batch_size):
                chosen = [items[i] for i in batch]
                try:
                    loss, backward = step(chosen)
                    if not math.isfinite(loss):
                        raise NumericalError("non-finite loss")
                    optimizer.update(backward)
                except NumericalError as exc:
                    ids = ", ".join(str(c[2]) for c in chosen)
                    raise NumericalError(
                        f"{phase} epoch {epoch}: {exc} on the batch of tweets {ids}") from exc
                total_loss += loss * len(chosen)
            try:
                acc = accuracy()
            except NumericalError as exc:
                raise NumericalError(f"{phase} epoch {epoch}, held-out pass: {exc}") from exc
            log.append({
                "phase": phase,
                "epoch": epoch,
                "mean_loss": total_loss / len(items),
                "accuracy": acc,
                "wall_time": time.perf_counter() - t0,
            })
    finally:
        optimizer.release()
    return log


def pretrain(
    examples: Sequence[PretrainExample],
    model: AdrModel,
    config: TrainConfig,
) -> List[dict]:
    """Phase 1: minimize masked-drug prediction cross-entropy.

    Trains the encoder and the drug head; the tag head is untouched. Returns
    one log record per epoch with the held-out drug accuracy. On every exit
    the model is left holding only its weights.
    """
    if not examples:
        raise ValueError("pretraining corpus is empty")
    train_idx, held_idx = heldout_split([e[2] for e in examples])
    if not train_idx:
        train_idx, held_idx = list(range(len(examples))), []

    def step(chosen):
        idx, lengths = pad_batch([c[0] for c in chosen], config.max_len)
        loss, cache = model.drug_loss(idx, lengths, np.array([c[1] for c in chosen]))
        return loss, partial(model.backward_drug, cache)

    held = [examples[i] for i in held_idx]
    return _train("pretrain", model.drug_parameters(), config,
                  [examples[i] for i in train_idx], step,
                  lambda: _drug_accuracy(model, held, config.max_len))


def _drug_accuracy(model, held, max_len) -> Optional[float]:
    chunks = predict_chunks(model.predict_drug_batch, held, max_len)
    correct = sum(int((p.argmax(axis=1) == [c[1] for c in chunk]).sum()) for chunk, _, p in chunks)
    return correct / len(held) if held else None


def train_supervised(
    data: Sequence[TagExample],
    model: AdrModel,
    config: TrainConfig,
) -> List[dict]:
    """Phase 2: minimize the summed per-token tagging cross-entropy.

    Reuses (and mutates) the same encoder parameter objects phase 1 trained;
    the drug head is untouched. Returns one log record per epoch with the
    training token accuracy. Optimizer moments start fresh, and on every
    exit the model is left holding only its weights.
    """
    if not data:
        raise ValueError("labeled training set is empty")
    for ids, tags, sid in data:
        if len(ids) != len(tags):
            raise ValueError(f"token/tag misalignment in record {sid!r}")
    counts = [0, 0]  # correct and scored tokens so far this epoch

    def step(chosen):
        idx, lengths = pad_batch([c[0] for c in chosen], config.max_len)
        tags, _ = pad_batch([c[1] for c in chosen], config.max_len)  # unread past a row's length
        loss, cache = model.tag_loss(idx, lengths, tags)
        counts[0] += int((cache.probs.argmax(axis=1) == cache.targets).sum())
        counts[1] += len(cache.targets)
        return loss, partial(model.backward_tags, cache)

    def accuracy():  # read at the end of an epoch; the next one counts from zero
        correct, scored = counts
        counts[:] = [0, 0]
        return correct / max(scored, 1)

    return _train("supervised", model.tag_parameters(), config, data, step, accuracy)


def write_log(fh, records: Sequence[dict]) -> None:
    """Write the line-delimited JSON training log to the open text file ``fh``."""
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
    for cell in model.cells:
        H = cell.hidden
        for k, g in enumerate(GATES):
            arrays += [(f"{p.name}_{g}", p.value[k * H : (k + 1) * H]) for p in cell.params()]
    heads = model.drug_head.params() + model.tag_head.params()
    return arrays + [(p.name, p.value) for p in heads]


def save_checkpoint(model: AdrModel, path) -> None:
    """Write the checkpoint atomically: ``path`` is never half-written."""
    with atomic_write(path, "wb") as fh:
        write_checkpoint(model, fh)


def write_checkpoint(model: AdrModel, fh) -> None:
    """Write the checkpoint to the open binary file ``fh``."""
    arrays = _model_arrays(model)
    header = {key: getattr(model, key) for key in _MODEL_FIELDS}
    header.update(version=1, gate_biases=True, pooling="mean",
                  arrays=[{"name": n, "shape": list(a.shape)} for n, a in arrays])
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    fh.write(CHECKPOINT_MAGIC)
    fh.write(len(blob).to_bytes(8, "little"))
    fh.write(blob)
    for _, a in arrays:  # from the array's own buffer, with no bytes copy
        fh.write(memoryview(np.ascontiguousarray(a, dtype=np.float64)))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The header's fields besides "version", with their validators: the model
# attributes, which write_checkpoint copies, then the two constants of the
# architecture that every file states (each direction stores its b_* arrays,
# and the drug head averages the encoder states), and the array list.
_MODEL_FIELDS = {
    **dict.fromkeys(("hidden", "emb", "drug_count", "seed"), _is_int),
    **dict.fromkeys(("vocab_tokens", "drug_names"), lambda v: v is None or (
        isinstance(v, list) and all(isinstance(t, str) for t in v))),
}
_HEADER_FIELDS = {
    **_MODEL_FIELDS,
    "gate_biases": lambda v: v is True,
    "pooling": lambda v: v == "mean",
    "arrays": lambda v: isinstance(v, list) and all(
        isinstance(e, dict) and isinstance(e.get("name"), str)
        and isinstance(e.get("shape"), list)
        and all(_is_int(d) and d >= 0 for d in e["shape"])
        for e in v
    ),
}


def load_checkpoint(path) -> AdrModel:
    """One pass: sizes are checked against the file before any array is
    allocated or mapped. The frozen embedding table is mapped read-only from
    the file, so it is shared through the page cache and lives as long as the
    model; every other array is read straight into the model's writable
    storage, which is built without random draws and holds no training
    buffers."""
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
        names, count = header["drug_names"], header["drug_count"]
        if names is not None and not len(set(names)) == len(names) == count:
            raise CheckpointError(f"{path}: header field 'drug_names' must hold drug_count "
                                  f"({count}) distinct names, not {len(set(names))} of "
                                  f"{len(names)}")
        rows = listed[0][1][0] if listed and listed[0][1] else 0
        kwargs = {k: header[k] for k in _MODEL_FIELDS if k != "emb"}
        try:  # a placeholder table of the file's shape, which allocates nothing
            model = AdrModel(np.broadcast_to(0.0, (rows, E)), **kwargs, _draw_weights=False)
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        arrays = _model_arrays(model)
        for found, want in itertools.zip_longest(listed, [(n, a.shape) for n, a in arrays]):
            if found != want:
                raise CheckpointError(f"{path}: file array {found} != model array {want}")
        (_, table), *weights = arrays
        # The mapping is the table's base, so it is unmapped when the model goes.
        start = fh.tell()
        try:
            mapped = mmap.mmap(fh.fileno(), start + table.nbytes, access=mmap.ACCESS_READ)
        except OSError as exc:  # mmap's own error names no file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        model.embeddings = np.frombuffer(mapped, np.float64, table.size, start).reshape(
            table.shape)
        if not np.isfinite(model.embeddings).all():
            raise CheckpointError(f"{path}: non-finite value in embeddings")
        fh.seek(start + table.nbytes)
        for name, a in weights:
            if fh.readinto(a) != a.nbytes:
                raise CheckpointError(f"{path}: truncated while reading {name}")
            if not np.isfinite(a).all():
                raise CheckpointError(f"{path}: non-finite value in {name}")
    return model
