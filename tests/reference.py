"""Single-sequence reference forward of the encoder and both heads.

One tweet at a time, no batching, no caching, no padding: the oracle that
``AdrModel``'s batched path (``encode_batch``, the loss and predict methods)
must match. It reads the model's parameter objects directly, so it follows
any trained weights.
"""

from typing import List, Sequence

import numpy as np

from adrtag.encoding import TagLabel
from adrtag.model import GATES, BiLSTMParams, LinearHead, LSTMCellParams
from adrtag.numerics import PROB_FLOOR, DimensionError


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
