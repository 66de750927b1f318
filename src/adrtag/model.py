"""Bidirectional LSTM encoder with a pooled drug-prediction head and a
per-timestep tag head.

Both heads share the encoder weights: the object identity of the cell
parameters is the parameter-sharing mechanism, so fine-tuning through one
head is observable through the other.

The backward passes are hand-derived and verified against central finite
differences (see :func:`gradient_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .encoding import TagLabel
from .numerics import (
    DimensionError,
    Parameter,
    cross_entropy,
    sigmoid,
    softmax,
    softmax_rows,
    tanh_op,
    PROB_FLOOR,
)

GATES = ("u", "f", "c", "o")  # row-block order of the fused gate arrays
FORGET_BIAS = 1.0


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


class LSTMCellParams:
    """One direction's fused gate weights: recurrent ``w`` (4H x H), input
    projection ``i`` (4H x E) and bias ``b`` (4H). Rows ``k*H:(k+1)*H`` of
    each belong to gate ``GATES[k]`` (update, forget, candidate, output)."""

    def __init__(
        self,
        prefix: str,
        hidden: int,
        emb: int,
        rng: np.random.Generator,
        gate_biases: bool = True,
    ):
        self.hidden = hidden
        self.emb = emb
        self.gate_biases = gate_biases
        w, i = np.empty((4 * hidden, hidden)), np.empty((4 * hidden, emb))
        for k in range(len(GATES)):  # one draw per gate block, w before i
            w[k * hidden : (k + 1) * hidden] = glorot(rng, hidden, hidden)
            i[k * hidden : (k + 1) * hidden] = glorot(rng, hidden, emb)
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = FORGET_BIAS if gate_biases else 0.0
        self.w = Parameter(f"{prefix}.w", w)
        self.i = Parameter(f"{prefix}.i", i)
        self.b = Parameter(f"{prefix}.b", b)

    def params(self) -> List[Parameter]:
        return [self.w, self.i, self.b] if self.gate_biases else [self.w, self.i]


@dataclass
class BiLSTMParams:
    forward_cell: LSTMCellParams
    backward_cell: LSTMCellParams

    def params(self) -> List[Parameter]:
        return self.forward_cell.params() + self.backward_cell.params()


class LinearHead:
    """Affine map followed (by callers) by a softmax."""

    def __init__(self, prefix: str, out_dim: int, in_dim: int, rng: np.random.Generator):
        self.w = Parameter(f"{prefix}.w", glorot(rng, out_dim, in_dim))
        self.b = Parameter(f"{prefix}.b", np.zeros(out_dim))

    def params(self) -> List[Parameter]:
        return [self.w, self.b]


# ---------------------------------------------------------------------------
# Functional single-sequence API (no batching, no caching). Used directly by
# tests and by ad-hoc prediction; the batched training path below must agree
# with it.
# ---------------------------------------------------------------------------


def lstm_cell_step(cell: LSTMCellParams, h_prev, m_prev, x_t):
    """One recurrence step; returns (h_t, m_t)."""
    h_prev = np.asarray(h_prev, dtype=np.float64)
    m_prev = np.asarray(m_prev, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    if h_prev.shape != (cell.hidden,) or x_t.shape != (cell.emb,):
        raise DimensionError(
            f"expected h ({cell.hidden},) and x ({cell.emb},), "
            f"got {h_prev.shape} and {x_t.shape}"
        )
    a = cell.w.value @ h_prev + cell.i.value @ x_t + cell.b.value
    u, f, c, o = np.split(a, len(GATES))
    m_t = sigmoid(f) * m_prev + sigmoid(u) * tanh_op(c)
    h_t = sigmoid(o) * np.tanh(m_t)
    return h_t, m_t


def bilstm_forward(params: BiLSTMParams, x_seq: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Concatenated forward/backward hidden states, one 2H vector per position."""
    if len(x_seq) == 0:
        raise ValueError("bilstm_forward requires a nonempty sequence")
    hidden = params.forward_cell.hidden
    fwd = []
    h = np.zeros(hidden)
    m = np.zeros(hidden)
    for x in x_seq:
        h, m = lstm_cell_step(params.forward_cell, h, m, x)
        fwd.append(h)
    bwd = [None] * len(x_seq)
    h = np.zeros(hidden)
    m = np.zeros(hidden)
    for t in range(len(x_seq) - 1, -1, -1):
        h, m = lstm_cell_step(params.backward_cell, h, m, x_seq[t])
        bwd[t] = h
    return [np.concatenate([f, b]) for f, b in zip(fwd, bwd)]


def mean_pool(h_seq: Sequence[np.ndarray], valid_length: int) -> np.ndarray:
    """Arithmetic mean of the first ``valid_length`` hidden vectors."""
    if valid_length < 1 or valid_length > len(h_seq):
        raise ValueError(f"valid_length {valid_length} out of range")
    return np.mean(np.asarray(h_seq[:valid_length], dtype=np.float64), axis=0)


def predict_drug(head: LinearHead, pooled: np.ndarray) -> np.ndarray:
    if pooled.shape != (head.w.value.shape[1],):
        raise DimensionError(
            f"pooled vector {pooled.shape} does not match head {head.w.value.shape}"
        )
    return softmax(head.w.value @ pooled + head.b.value)


def tag_forward(head: LinearHead, h_seq: Sequence[np.ndarray]) -> List[np.ndarray]:
    if len(h_seq) == 0:
        raise ValueError("tag_forward requires a nonempty sequence")
    return [softmax(head.w.value @ h + head.b.value) for h in h_seq]


def sequence_loss(predictions: Sequence[np.ndarray], gold: Sequence[TagLabel]) -> float:
    """Sum of per-position cross-entropy over non-PAD positions."""
    if len(predictions) != len(gold):
        raise DimensionError(
            f"{len(predictions)} predictions vs {len(gold)} gold tags"
        )
    total = 0.0
    for dist, tag in zip(predictions, gold):
        if tag == TagLabel.PAD:
            continue
        total += cross_entropy(dist, int(tag))
    return total


# ---------------------------------------------------------------------------
# Batched training path with activation caching and hand-derived BPTT.
# ---------------------------------------------------------------------------


@dataclass
class _DirectionCache:
    # Time-major, in processing order; h[t], m[t] enter step t (h[0] = m[0] = 0).
    x: np.ndarray  # (T, B, E)
    h: np.ndarray  # (T + 1, B, H)
    m: np.ndarray  # (T + 1, B, H)
    gates: np.ndarray  # (T, B, 4H) activations u, f, c, o
    tanh_m: np.ndarray  # (T, B, H) tanh of the unmasked cell state
    mask: np.ndarray  # (T, B, 1)


@dataclass
class EncodeCache:
    indices: np.ndarray
    lengths: np.ndarray
    mask: np.ndarray
    h: np.ndarray  # (B, T, 2H), a transposed view of time-major storage
    fwd: _DirectionCache
    bwd: _DirectionCache


@dataclass
class DrugLossCache:
    enc: EncodeCache
    pooled: np.ndarray
    probs: np.ndarray
    labels: np.ndarray


@dataclass
class TagLossCache:
    enc: EncodeCache
    probs: np.ndarray  # (B, T, L)
    tags: np.ndarray  # (B, T)
    valid: np.ndarray  # (B, T) float, 1 at scored positions


def _run_direction(cell: LSTMCellParams, x: np.ndarray, mask: np.ndarray):
    """Recurrence over time-major (T, B, E) input in processing order; masked
    steps reset the state to zero (padding sits at the sequence tail, so in
    reversed order it is consumed before any real token). Returns the
    (T, B, H) hidden states and the cache for :func:`_backprop_direction`."""
    T, B, E = x.shape
    H = cell.hidden
    gates = (x.reshape(T * B, E) @ cell.i.value.T).reshape(T, B, 4 * H)
    gates += cell.b.value
    h, m = np.zeros((2, T + 1, B, H))
    tanh_m = np.empty((T, B, H))
    for t in range(T):
        a = gates[t]
        a += h[t] @ cell.w.value.T
        a[:, : 2 * H] = sigmoid(a[:, : 2 * H])
        np.tanh(a[:, 2 * H : 3 * H], out=a[:, 2 * H : 3 * H])
        a[:, 3 * H :] = sigmoid(a[:, 3 * H :])
        u, f, c, o = np.split(a, len(GATES), axis=1)
        m_raw = f * m[t] + u * c
        np.tanh(m_raw, out=tanh_m[t])
        h[t + 1] = mask[t] * (o * tanh_m[t])
        m[t + 1] = mask[t] * m_raw
    return h[1:], _DirectionCache(x=x, h=h, m=m, gates=gates, tanh_m=tanh_m, mask=mask)


def _backprop_direction(cell: LSTMCellParams, cache: _DirectionCache, dhs: np.ndarray):
    """Accumulate one direction's gradients given dLoss/dh_t, (T, B, H) in
    processing order. Gate pre-activation gradients overwrite ``cache.gates``
    step by step; each weight gradient is then one product over all steps."""
    T, B, _ = cache.gates.shape
    H = cell.hidden
    dh_next, dm_next = np.zeros((2, B, H))
    for t in range(T - 1, -1, -1):
        g = cache.gates[t]
        u, f, c, o = np.split(g, len(GATES), axis=1)
        tm, mt = cache.tanh_m[t], cache.mask[t]
        dh_raw = (dhs[t] + dh_next) * mt
        dm_raw = dm_next * mt + dh_raw * o * (1.0 - tm * tm)
        dm_next = dm_raw * f
        da_u, da_c = dm_raw * c * u * (1.0 - u), dm_raw * u * (1.0 - c * c)
        da_f, da_o = dm_raw * cache.m[t] * f * (1.0 - f), dh_raw * tm * o * (1.0 - o)
        np.concatenate((da_u, da_f, da_c, da_o), axis=1, out=g)
        dh_next = g @ cell.w.value
    da = cache.gates.reshape(T * B, 4 * H)
    cell.w.grad += da.T @ cache.h[:-1].reshape(T * B, H)
    cell.i.grad += da.T @ cache.x.reshape(T * B, -1)
    if cell.gate_biases:
        cell.b.grad += da.sum(axis=0)


class AdrModel:
    """Encoder + both task heads, with frozen word embeddings as input."""

    def __init__(
        self,
        embeddings: np.ndarray,
        hidden: int,
        drug_count: int,
        seed: int,
        gate_biases: bool = True,
        pooling: str = "mean",
        vocab_tokens: Optional[List[str]] = None,
        drug_names: Optional[List[str]] = None,
    ):
        if drug_count < 2:
            raise ValueError("drug catalog must contain at least 2 names")
        if pooling not in ("mean", "sum"):
            raise ValueError(f"unknown pooling {pooling!r}")
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        self.emb = self.embeddings.shape[1]
        self.hidden = hidden
        self.drug_count = drug_count
        self.seed = seed
        self.pooling = pooling
        self.gate_biases = gate_biases
        self.vocab_tokens = vocab_tokens
        self.drug_names = drug_names
        rng = np.random.default_rng(seed)
        self.encoder = BiLSTMParams(
            LSTMCellParams("fwd", hidden, self.emb, rng, gate_biases),
            LSTMCellParams("bwd", hidden, self.emb, rng, gate_biases),
        )
        self.drug_head = LinearHead("drug", drug_count, 2 * hidden, rng)
        self.tag_head = LinearHead("tag", len(TagLabel), 2 * hidden, rng)

    # -- parameter groups ---------------------------------------------------

    def encoder_parameters(self) -> List[Parameter]:
        return self.encoder.params()

    def drug_parameters(self) -> List[Parameter]:
        return self.encoder_parameters() + self.drug_head.params()

    def tag_parameters(self) -> List[Parameter]:
        return self.encoder_parameters() + self.tag_head.params()

    def all_parameters(self) -> List[Parameter]:
        return (
            self.encoder_parameters()
            + self.drug_head.params()
            + self.tag_head.params()
        )

    def zero_grad(self):
        for p in self.all_parameters():
            p.zero_grad()

    # -- shared encoder -----------------------------------------------------

    def encode_batch(self, indices: np.ndarray, lengths: np.ndarray) -> EncodeCache:
        indices = np.asarray(indices)
        lengths = np.asarray(lengths)
        B, T = indices.shape
        if np.any(lengths < 1) or np.any(lengths > T):
            raise ValueError("valid lengths must be in [1, T]")
        mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.float64)
        x = self.embeddings[indices.T]  # (T, B, E), time-major
        step_mask = mask.T[..., None]
        hs_f, cache_f = _run_direction(self.encoder.forward_cell, x, step_mask)
        hs_b, cache_b = _run_direction(
            self.encoder.backward_cell, x[::-1], step_mask[::-1]
        )
        h = np.concatenate([hs_f, hs_b[::-1]], axis=2).transpose(1, 0, 2)
        return EncodeCache(
            indices=indices, lengths=lengths, mask=mask, h=h, fwd=cache_f, bwd=cache_b
        )

    def _backprop_encoder(self, enc: EncodeCache, dh: np.ndarray):
        H = self.hidden
        dh = dh.transpose(1, 0, 2)  # (T, B, 2H), time-major
        _backprop_direction(self.encoder.forward_cell, enc.fwd, dh[..., :H])
        _backprop_direction(self.encoder.backward_cell, enc.bwd, dh[::-1, :, H:])

    # -- drug-prediction head -----------------------------------------------

    def drug_loss(self, indices, lengths, labels) -> tuple:
        """Mean cross-entropy of the masked-drug classifier over a batch.

        Returns (loss, cache); pass the cache to :meth:`backward_drug`.
        """
        enc = self.encode_batch(indices, lengths)
        labels = np.asarray(labels)
        B = enc.h.shape[0]
        weighted = enc.h * enc.mask[..., None]
        pooled = weighted.sum(axis=1)
        if self.pooling == "mean":
            pooled = pooled / enc.lengths[:, None]
        logits = pooled @ self.drug_head.w.value.T + self.drug_head.b.value
        probs = softmax_rows(logits)
        picked = np.maximum(probs[np.arange(B), labels], PROB_FLOOR)
        loss = float(-np.log(picked).mean())
        return loss, DrugLossCache(enc=enc, pooled=pooled, probs=probs, labels=labels)

    def backward_drug(self, cache: DrugLossCache):
        if cache is None or cache.enc is None:
            raise RuntimeError("backward_drug requires the cache from drug_loss")
        B = cache.probs.shape[0]
        dlogits = cache.probs.copy()
        dlogits[np.arange(B), cache.labels] -= 1.0
        dlogits /= B
        self.drug_head.w.grad += dlogits.T @ cache.pooled
        self.drug_head.b.grad += dlogits.sum(axis=0)
        dpooled = dlogits @ self.drug_head.w.value
        dh = dpooled[:, None, :] * cache.enc.mask[..., None]
        if self.pooling == "mean":
            dh = dh / cache.enc.lengths[:, None, None]
        self._backprop_encoder(cache.enc, dh)
        cache.enc = None  # spent; a second backward would double-count

    def predict_drug_batch(self, indices, lengths) -> np.ndarray:
        _, cache = self.drug_loss(indices, lengths, np.zeros(len(lengths), dtype=int))
        return cache.probs

    # -- tagging head ---------------------------------------------------------

    def tag_loss(self, indices, lengths, tags) -> tuple:
        """Per-sequence sum of cross-entropy at non-PAD positions, averaged
        over the batch. Returns (loss, cache) for :meth:`backward_tags`.
        """
        enc = self.encode_batch(indices, lengths)
        tags = np.asarray(tags)
        if tags.shape != enc.indices.shape:
            raise DimensionError(
                f"tags {tags.shape} must align with tokens {enc.indices.shape}"
            )
        logits = enc.h @ self.tag_head.w.value.T + self.tag_head.b.value
        probs = softmax_rows(logits)
        valid = enc.mask * (tags != int(TagLabel.PAD))
        B, T = tags.shape
        safe = np.where(valid > 0, tags, 0)
        picked = np.maximum(
            probs[np.arange(B)[:, None], np.arange(T)[None, :], safe], PROB_FLOOR
        )
        loss = float((-np.log(picked) * valid).sum() / B)
        return loss, TagLossCache(enc=enc, probs=probs, tags=tags, valid=valid)

    def backward_tags(self, cache: TagLossCache):
        if cache is None or cache.enc is None:
            raise RuntimeError("backward_tags requires the cache from tag_loss")
        B, T = cache.tags.shape
        dlogits = cache.probs.copy()
        safe = np.where(cache.valid > 0, cache.tags, 0)
        dlogits[np.arange(B)[:, None], np.arange(T)[None, :], safe] -= 1.0
        dlogits *= cache.valid[..., None] / B
        flat = dlogits.reshape(-1, dlogits.shape[-1])
        self.tag_head.w.grad += flat.T @ cache.enc.h.reshape(-1, 2 * self.hidden)
        self.tag_head.b.grad += flat.sum(axis=0)
        dh = dlogits @ self.tag_head.w.value
        self._backprop_encoder(cache.enc, dh)
        cache.enc = None

    def predict_tags(self, token_indices: Sequence[int]) -> List[TagLabel]:
        """Greedy per-position tags for one unpadded sequence."""
        idx = np.asarray([token_indices])
        lengths = np.asarray([len(token_indices)])
        enc = self.encode_batch(idx, lengths)
        logits = enc.h[0] @ self.tag_head.w.value.T + self.tag_head.b.value
        return [TagLabel(int(i)) for i in logits.argmax(axis=1)]


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


@dataclass
class GradCheckResult:
    head: str
    seed: int
    max_rel_err: float
    worst_param: str
    ok: bool


def _relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    # Entries where both gradients are essentially zero only need to agree
    # absolutely; central differences carry ~1e-9 noise.
    rel = np.where(scale > 1e-6, err / np.maximum(scale, 1e-300), np.where(err < 1e-7, 0.0, 1.0))
    return rel


def gradient_check(
    seed: int,
    emb: int = 5,
    hidden: int = 7,
    timesteps: int = 4,
    drugs: int = 3,
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
) -> List[GradCheckResult]:
    """Compare analytic gradients of both heads against finite differences
    on a randomly initialized tiny model. Returns one result per head."""
    from .numerics import finite_difference_gradient

    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(seed)
    vocab_size = 11
    embeddings = rng.normal(scale=0.5, size=(vocab_size, emb))
    model = AdrModel(embeddings, hidden=hidden, drug_count=drugs, seed=seed)
    B = 2
    indices = rng.integers(1, vocab_size, size=(B, timesteps))
    lengths = np.array([timesteps, max(1, timesteps - 1)])
    labels = rng.integers(0, drugs, size=B)
    tags = rng.integers(0, len(TagLabel) - 1, size=(B, timesteps))
    for b in range(B):
        tags[b, lengths[b]:] = int(TagLabel.PAD)

    results = []
    for head, params, loss_fn, backward in (
        (
            "drug",
            model.drug_parameters(),
            lambda: model.drug_loss(indices, lengths, labels)[0],
            lambda: model.backward_drug(model.drug_loss(indices, lengths, labels)[1]),
        ),
        (
            "tag",
            model.tag_parameters(),
            lambda: model.tag_loss(indices, lengths, tags)[0],
            lambda: model.backward_tags(model.tag_loss(indices, lengths, tags)[1]),
        ),
    ):
        model.zero_grad()
        backward()
        numeric = finite_difference_gradient(loss_fn, params, epsilon)
        worst = ("", 0.0)
        for p in params:
            rel = _relative_errors(p.grad, numeric[p.name])
            m = float(rel.max()) if rel.size else 0.0
            if m >= worst[1]:
                worst = (p.name, m)
        results.append(
            GradCheckResult(
                head=head,
                seed=seed,
                max_rel_err=worst[1],
                worst_param=worst[0],
                ok=worst[1] < tolerance,
            )
        )
    return results
