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
from .numerics import PROB_FLOOR, DimensionError, Parameter, sigmoid, softmax_rows

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
# Batched forward, shared by training and inference, with activation caching
# and hand-derived BPTT.
# ---------------------------------------------------------------------------


@dataclass
class _DirectionCache:
    # Packed time-major, in processing order: step t holds the live prefix of
    # the length-sorted rows at positions offsets[t]:offsets[t]+live[t].
    emb: np.ndarray  # (V, E) embedding table; inputs are gathered where used
    ids: np.ndarray  # (N,) token ids of the N real positions
    live: np.ndarray  # (steps,) rows live at each step, non-increasing
    h: np.ndarray  # (live[0] + N, H): zero start states, then each position's output
    m: np.ndarray  # (live[0] + N, H), laid out like h
    gates: np.ndarray  # (N, 4H) activations u, f, c, o
    tanh_m: np.ndarray  # (N, H)


def _offsets(live: np.ndarray) -> tuple:
    """Where each step's rows begin: among the packed positions, and in the
    state arrays, whose first live[0] rows are the zero start states and whose
    row live[0] + p is position p's output (so step t reads step t - 1's)."""
    offsets = np.cumsum(live) - live
    return offsets, np.concatenate(([0], live[0] + offsets[:-1]))


@dataclass
class EncodeCache:
    indices: np.ndarray
    lengths: np.ndarray
    mask: np.ndarray
    pack: tuple  # (rows, fwd_cols, bwd_cols): (B, T) position of each packed position
    h: np.ndarray  # (B, T, 2H); zero at padding positions
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


def _run_direction(cell: LSTMCellParams, emb: np.ndarray, ids: np.ndarray, live: np.ndarray):
    """Recurrence over the packed token ids of the real positions, in
    processing order; each step computes only its ``live`` prefix of rows.
    Returns the packed (N, H) hidden states and the cache for
    :func:`_backprop_direction`."""
    H = cell.hidden
    gates = emb[ids] @ cell.i.value.T
    gates += cell.b.value
    h, m = np.zeros((2, live[0] + len(ids), H))
    tanh_m = np.empty((len(ids), H))
    for o, s, n in zip(*_offsets(live), live):
        a = gates[o : o + n]
        a += h[s : s + n] @ cell.w.value.T
        a[:, : 2 * H] = sigmoid(a[:, : 2 * H])
        np.tanh(a[:, 2 * H : 3 * H], out=a[:, 2 * H : 3 * H])
        a[:, 3 * H :] = sigmoid(a[:, 3 * H :])
        u, f, c, og = np.split(a, len(GATES), axis=1)
        out = live[0] + o
        m[out : out + n] = f * m[s : s + n] + u * c
        np.tanh(m[out : out + n], out=tanh_m[o : o + n])
        h[out : out + n] = og * tanh_m[o : o + n]
    cache = _DirectionCache(emb=emb, ids=ids, live=live, h=h, m=m, gates=gates, tanh_m=tanh_m)
    return h[live[0] :], cache


def _backprop_direction(cell: LSTMCellParams, cache: _DirectionCache, dhs: np.ndarray):
    """Accumulate one direction's gradients given dLoss/dh, (N, H) in the
    packed order of the cache. Gate gradients overwrite ``cache.gates`` step
    by step; each weight gradient is then one product over the real positions."""
    live = cache.live
    offsets, starts = _offsets(live)
    H = cell.hidden
    # A row joins the walk at its last step, where nothing flows back into it.
    dh_next, dm_next = np.zeros((2, live[0], H))
    for t in range(len(live) - 1, -1, -1):
        o, s, n = offsets[t], starts[t], live[t]
        g = cache.gates[o : o + n]
        u, f, c, og = np.split(g, len(GATES), axis=1)
        tm = cache.tanh_m[o : o + n]
        dh_raw = dhs[o : o + n] + dh_next[:n]
        dm_raw = dm_next[:n] + dh_raw * og * (1.0 - tm * tm)
        dm_next[:n] = dm_raw * f
        da_u, da_c = dm_raw * c * u * (1.0 - u), dm_raw * u * (1.0 - c * c)
        da_f, da_o = dm_raw * cache.m[s : s + n] * f * (1.0 - f), dh_raw * tm * og * (1.0 - og)
        np.concatenate((da_u, da_f, da_c, da_o), axis=1, out=g)
        np.matmul(g, cell.w.value, out=dh_next[:n])
    da = cache.gates
    # Position offsets[t] + k entered step t with the state in row starts[t] + k.
    h_in = cache.h[np.arange(len(da)) + np.repeat(starts - offsets, live)]
    cell.w.grad += da.T @ h_in
    cell.i.grad += da.T @ cache.emb[cache.ids]
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
        steps = np.arange(T)
        mask = (steps[None, :] < lengths[:, None]).astype(np.float64)
        # Longest rows first, so the rows live at step t are one prefix in both
        # directions; the backward direction reads each row from its last token.
        order = np.argsort(-lengths, kind="stable")
        sorted_lengths = lengths[order]
        live = (sorted_lengths[None, :] > steps[: sorted_lengths[0], None]).sum(axis=1)
        t = np.repeat(np.arange(len(live)), live)
        k = np.arange(len(t)) - np.repeat(np.cumsum(live) - live, live)
        pack = (order[k], t, sorted_lengths[k] - 1 - t)
        rows, fwd_cols, bwd_cols = pack
        H = self.hidden
        h = np.zeros((B, T, 2 * H))
        hs, fwd = _run_direction(
            self.encoder.forward_cell, self.embeddings, indices[rows, fwd_cols], live
        )
        h[rows, fwd_cols, :H] = hs
        hs, bwd = _run_direction(
            self.encoder.backward_cell, self.embeddings, indices[rows, bwd_cols], live
        )
        h[rows, bwd_cols, H:] = hs
        return EncodeCache(
            indices=indices, lengths=lengths, mask=mask, pack=pack, h=h, fwd=fwd, bwd=bwd
        )

    def _backprop_encoder(self, enc: EncodeCache, dh: np.ndarray):
        H = self.hidden
        rows, fwd_cols, bwd_cols = enc.pack
        _backprop_direction(self.encoder.forward_cell, enc.fwd, dh[rows, fwd_cols, :H])
        _backprop_direction(self.encoder.backward_cell, enc.bwd, dh[rows, bwd_cols, H:])

    # -- drug-prediction head -----------------------------------------------

    def _drug_logits(self, enc: EncodeCache) -> tuple:
        """Pooled encoder states (B, 2H) over real positions and the drug
        head's logits (B, D)."""
        pooled = enc.h.sum(axis=1)  # padding states are zero
        if self.pooling == "mean":
            pooled = pooled / enc.lengths[:, None]
        return pooled, pooled @ self.drug_head.w.value.T + self.drug_head.b.value

    def drug_loss(self, indices, lengths, labels) -> tuple:
        """Mean cross-entropy of the masked-drug classifier over a batch.

        Returns (loss, cache); pass the cache to :meth:`backward_drug`.
        """
        enc = self.encode_batch(indices, lengths)
        labels = np.asarray(labels)
        B = enc.h.shape[0]
        pooled, logits = self._drug_logits(enc)
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
        if self.pooling == "mean":
            dpooled = dpooled / cache.enc.lengths[:, None]
        # Every real position gets its row's gradient; padding is never read.
        dh = np.broadcast_to(dpooled[:, None, :], cache.enc.h.shape)
        self._backprop_encoder(cache.enc, dh)
        cache.enc = None  # spent; a second backward would double-count

    def predict_drug_batch(self, indices, lengths) -> np.ndarray:
        """Drug distributions (B, D) for a padded batch."""
        return softmax_rows(self._drug_logits(self.encode_batch(indices, lengths))[1])

    # -- tagging head ---------------------------------------------------------

    def _tag_logits(self, enc: EncodeCache) -> np.ndarray:
        """Tag head logits (B, T, L) at every position, padding included."""
        return enc.h @ self.tag_head.w.value.T + self.tag_head.b.value

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
        probs = softmax_rows(self._tag_logits(enc))
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

    def predict_tag_batch(self, indices, lengths) -> np.ndarray:
        """Greedy tag ids (B, T) for a padded batch; entries past a row's
        length are meaningless."""
        return self._tag_logits(self.encode_batch(indices, lengths)).argmax(axis=2)

    def predict_tags(self, token_indices: Sequence[int]) -> List[TagLabel]:
        """Greedy per-position tags for one unpadded sequence."""
        row = self.predict_tag_batch([token_indices], [len(token_indices)])[0]
        return [TagLabel(int(i)) for i in row]


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
