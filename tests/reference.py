"""Single-sequence reference forward of the encoder and both heads.

One tweet at a time, no batching, no caching, no padding: the oracle that
``AdrModel``'s batched path (``encode_batch``, the loss and predict methods)
must match. It reads the model's parameter objects directly, so it follows
any trained weights.

Below it, a packed oracle: each direction in its own step loop
(``_run_direction`` and ``_backprop_direction``, kept as they were before the
model ran both directions in one lockstep loop), driven by the batch packing,
heads and losses of ``AdrModel``, for bit-for-bit comparison with the model.

At the end, the text oracles: ``normalize`` with its regexes and
``load_embeddings`` parsing every row into a dict, each kept as it was before
``adrtag.text`` gained a plain-word fast path and a block-parsing loader.
"""

import re
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from adrtag.encoding import TagLabel
from adrtag.model import GATES, AdrModel, BiLSTMParams, LinearHead, LSTMCellParams
from adrtag.numerics import PROB_FLOOR, DimensionError, softmax_rows
from adrtag.text import _PROTECTED, LINK, PAD, USER, DataError, EmbeddingTable


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function, one formula per sign of ``x`` so that
    ``exp`` never overflows."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits) -> np.ndarray:
    """Probability vector from a 1-D logit vector (max-subtracted for stability)."""
    z = np.asarray(logits, dtype=np.float64).ravel()
    if z.size == 0:
        raise ValueError("softmax of an empty logit vector")
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def cross_entropy(dist, target: int) -> float:
    """Negative log-probability of ``target`` under ``dist``.

    The picked probability is clamped at ``PROB_FLOOR`` before the log so a
    confidently wrong model yields a large finite loss, never inf.
    """
    d = np.asarray(dist, dtype=np.float64).ravel()
    if not 0 <= target < d.size:
        raise ValueError(f"target {target} out of range for {d.size} classes")
    return float(-np.log(max(d[target], PROB_FLOOR)))


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
    m_t = sigmoid(f) * m_prev + sigmoid(u) * np.tanh(c)
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
# Packed oracle: one step loop per direction.
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


def packed_oracle(model: AdrModel, indices, lengths, labels, tags) -> dict:
    """The encoder states ``h`` (N, 2H) in the model's packed order, the
    drug and tag losses, and every gradient of each head (``"drug"`` and
    ``"tag"``, by parameter name), through the per-direction loops above.
    Gradients accumulate into ``model``'s parameters, so pass a copy."""
    indices, lengths = np.asarray(indices), np.asarray(lengths)
    B = len(lengths)
    H = model.hidden
    enc = model.encoder
    order = np.argsort(-lengths, kind="stable")
    live = B - np.cumsum(np.bincount(lengths))[: lengths.max()]
    offsets, _ = _offsets(live)
    cols = np.repeat(np.arange(len(live)), live)
    k = np.arange(len(cols)) - offsets[cols]
    rows = order[k]
    rev = offsets[lengths[rows] - 1 - cols] + k
    ids = indices[rows, cols]
    out = {}

    def encode():
        hf, fwd = _run_direction(enc.forward_cell, model.embeddings, ids, live)
        hb, bwd = _run_direction(enc.backward_cell, model.embeddings, ids[rev], live)
        return np.concatenate((hf, hb[rev]), axis=1), fwd, bwd

    def backprop(fwd, bwd, dh):
        _backprop_direction(enc.forward_cell, fwd, dh[:, :H])
        _backprop_direction(enc.backward_cell, bwd, dh[rev, H:])

    # Drug head: pooled left to right, one add per step over its live rows.
    model.zero_grad()
    h, fwd, bwd = encode()
    out["h"] = h
    summed = h[: live[0]].copy()
    for o, n in zip(np.cumsum(live)[:-1], live[1:]):
        summed[:n] += h[o : o + n]
    pooled = np.empty_like(summed)
    pooled[rows[: live[0]]] = summed
    if model.pooling == "mean":
        pooled /= lengths[:, None]
    head = model.drug_head
    probs = softmax_rows(pooled @ head.w.value.T + head.b.value)
    out["drug_loss"] = float(-np.log(np.maximum(probs[np.arange(B), labels], PROB_FLOOR)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    head.w.grad += dlogits.T @ pooled
    head.b.grad += dlogits.sum(axis=0)
    dpooled = dlogits @ head.w.value
    if model.pooling == "mean":
        dpooled = dpooled / lengths[:, None]
    backprop(fwd, bwd, dpooled[rows])
    out["drug"] = {p.name: p.grad.copy() for p in model.drug_parameters()}

    # Tag head, on the real positions.
    model.zero_grad()
    h, fwd, bwd = encode()
    head = model.tag_head
    gold = np.asarray(tags)[rows, cols]
    probs = softmax_rows(h @ head.w.value.T + head.b.value)
    valid = gold != int(TagLabel.PAD)
    picked = np.maximum(probs[np.arange(len(gold)), np.where(valid, gold, 0)], PROB_FLOOR)
    out["tag_loss"] = float((-np.log(picked) * valid).sum() / B)
    dlogits = probs.copy()
    dlogits[np.arange(len(gold)), np.where(valid, gold, 0)] -= 1.0
    dlogits *= valid[:, None] / B
    head.w.grad += dlogits.T @ h
    head.b.grad += dlogits.sum(axis=0)
    backprop(fwd, bwd, dlogits @ head.w.value)
    out["tag"] = {p.name: p.grad.copy() for p in model.tag_parameters()}
    return out


_MENTION_RE = re.compile(r"@\w")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")


def normalize(raw: str) -> str:
    """Clean one raw tweet into lowercase ASCII words."""
    out = []
    for tok in raw.split():
        if tok in _PROTECTED:
            out.append(tok)
            continue
        tok = tok.encode("ascii", "ignore").decode("ascii")
        if not tok:
            continue
        low = tok.lower()
        if low.startswith(("http://", "https://", "www.")):
            out.append(LINK)
            continue
        if _MENTION_RE.match(tok):
            out.append(USER)
            continue
        cleaned = _NON_ALNUM_RE.sub("", low)
        if cleaned:
            out.append(cleaned)
    return " ".join(out)


def load_embeddings(path, vocab, seed: int = 0) -> EmbeddingTable:
    """Load plain-text word vectors for ``vocab``, holding every row of the
    file in a dict before building the table."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: header must be 'V D'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"{path}: header must be two integers") from exc
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise DataError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(parts) - 1}"
                )
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad float") from exc
            if not np.isfinite(vec).all():
                raise DataError(f"{path}: line {lineno}: non-finite value (nan or inf)")
            if parts[0] in rows:
                raise DataError(f"{path}: line {lineno}: duplicate token {parts[0]!r}")
            rows[parts[0]] = vec
    if len(rows) != count:
        raise DataError(f"{path}: header says {count} rows, file has {len(rows)}")

    rng = np.random.default_rng(seed)
    vectors = np.zeros((len(vocab), dim), dtype=np.float64)
    found = 0
    vocab_words = 0
    for i, tok in enumerate(vocab.index_to_token):
        if tok not in _PROTECTED:
            vocab_words += 1
        if tok == PAD:
            continue
        if tok in rows:
            vectors[i] = rows[tok]
            if tok not in _PROTECTED:
                found += 1
        else:
            vectors[i] = rng.uniform(-0.05, 0.05, size=dim)
    coverage = found / vocab_words if vocab_words else 0.0
    return EmbeddingTable(vectors=vectors, coverage=coverage)
