"""Bidirectional LSTM encoder with a pooled drug-prediction head and a
per-timestep tag head.

Both heads share the encoder weights: the object identity of the cell
parameters is the parameter-sharing mechanism, so fine-tuning through one
head is observable through the other.

The backward passes are hand-derived and verified against central finite
differences (see :func:`gradient_check`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from .encoding import TagLabel
from .errors import NumericalError
from .numerics import (PROB_FLOOR, Gradients, Parameter, finite_difference_gradient, sigmoid,
                       softmax_rows)

GATES = ("u", "f", "c", "o")  # row-block order of the fused gate arrays
FORGET_BIAS = 1.0


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


class LSTMCellParams:
    """One direction's fused gate weights: recurrent ``w`` (4H x H), input
    projection ``i`` (4H x E) and bias ``b`` (4H). Rows ``k*H:(k+1)*H`` of
    each belong to gate ``GATES[k]`` (update, forget, candidate, output).
    Without ``rng``, ``w`` and ``i`` are left unset, for a caller that fills them."""

    def __init__(
        self,
        prefix: str,
        hidden: int,
        emb: int,
        rng: Optional[np.random.Generator],
    ):
        self.hidden = hidden
        self.emb = emb
        w, i = np.empty((4 * hidden, hidden)), np.empty((4 * hidden, emb))
        if rng is not None:
            for k in range(len(GATES)):  # one draw per gate block, w before i
                w[k * hidden : (k + 1) * hidden] = glorot(rng, hidden, hidden)
                i[k * hidden : (k + 1) * hidden] = glorot(rng, hidden, emb)
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = FORGET_BIAS
        self.w = Parameter(f"{prefix}.w", w)
        self.i = Parameter(f"{prefix}.i", i)
        self.b = Parameter(f"{prefix}.b", b)

    def params(self) -> List[Parameter]:
        return [self.w, self.i, self.b]


class LinearHead:
    """Affine map followed (by callers) by a softmax. Without ``rng``, ``w``
    is left unset, for a caller that fills it."""

    def __init__(
        self, prefix: str, out_dim: int, in_dim: int, rng: Optional[np.random.Generator]
    ):
        w = glorot(rng, out_dim, in_dim) if rng is not None else np.empty((out_dim, in_dim))
        self.w = Parameter(f"{prefix}.w", w)
        self.b = Parameter(f"{prefix}.b", np.zeros(out_dim))

    def params(self) -> List[Parameter]:
        return [self.w, self.b]

    def logits(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w.value.T + self.b.value


# ---------------------------------------------------------------------------
# Batched forward, shared by training and inference, with activation caching
# and hand-derived BPTT.
# ---------------------------------------------------------------------------


@dataclass
class EncodeCache:
    # The N real positions, packed time-major in processing order, the two
    # directions side by side on axis 1 (forward, backward): step t holds the
    # live prefix of the length-sorted rows at positions
    # offsets[t]:offsets[t]+live[t], in the forward direction's order on axis 0.
    lengths: np.ndarray
    rows: np.ndarray  # (N,) batch row of each position; rows[:B] sorts the rows longest first
    cols: np.ndarray  # (N,) its column, which is also its forward step
    rev: np.ndarray  # (N,) the backward direction's position for the same token; self-inverse
    live: np.ndarray  # (steps,) rows live at each step, non-increasing
    offsets: np.ndarray  # (steps,) where each step's positions begin
    # (steps,) where each step's input states begin in ``states``, whose first
    # live[0] rows are the zero start states and whose row live[0] + p is
    # position p's output (so step t reads step t - 1's).
    starts: np.ndarray
    emb: np.ndarray  # (V, E) embedding table; inputs are gathered where used
    ids: np.ndarray  # (N, 2) token ids of the positions, per direction
    # Filled by _run_encoder: (live[0] + N, 2, H) start states and outputs,
    # the cell states laid out alike (dropped by BPTT), and the (N, 2, 4H)
    # gate activations u, f, c, o.
    states: Optional[np.ndarray] = None
    m: Optional[np.ndarray] = None
    gates: Optional[np.ndarray] = None

    @cached_property
    def h(self) -> np.ndarray:
        """(N, 2H) forward states, then backward states, at the positions in
        order: a copy of the outputs in ``states``, built only for a reader
        that needs every position's full state (the tag head)."""
        hs = self.states[self.live[0] :]
        return np.concatenate((hs[:, 0], hs[self.rev, 1]), axis=1)


@dataclass
class LossCache:
    # What a head's backward reads; it empties every field, so a spent cache
    # holds no array.
    enc: Optional[EncodeCache]
    x: Optional[np.ndarray]  # the rows the head read: pooled states (B, 2H) or enc.h (N, 2H)
    probs: Optional[np.ndarray]  # softmax of the head's logits, one row per row of x
    targets: Optional[np.ndarray]  # gold class of each row of x
    head: LinearHead  # the head that made it


def _run_encoder(cells: Sequence[LSTMCellParams], enc: EncodeCache):
    """Both directions' recurrences in lockstep over the packed token ids
    ``enc.ids``, each direction in its own processing order; each step
    computes only its live prefix of rows. Fills the cache's ``gates``,
    ``states`` and ``m`` for :func:`_backprop_encoder`."""
    H, N, B = cells[0].hidden, len(enc.ids), int(enc.live[0])
    gates = enc.gates = np.empty((N, 2, 4 * H))
    for d, cell in enumerate(cells):
        np.matmul(enc.emb[enc.ids[:, d]], cell.i.value.T, out=gates[:, d])
        gates[:, d] += cell.b.value
    # Separate arrays, so that BPTT can free m while h is still read.
    h = enc.states = np.zeros((B + N, 2, H))
    m = enc.m = np.zeros((B + N, 2, H))
    tanh_m = np.empty((B, 2, H))  # this step's; BPTT recomputes it from m
    for o, s, n in zip(enc.offsets.tolist(), enc.starts.tolist(), enc.live.tolist()):
        a = gates[o : o + n]
        if o:  # step 0 reads the zero start state, whose product would only add 0.0
            for d, cell in enumerate(cells):
                a[:, d] += h[s : s + n, d] @ cell.w.value.T
        a[..., : 2 * H] = sigmoid(a[..., : 2 * H])
        np.tanh(a[..., 2 * H : 3 * H], out=a[..., 2 * H : 3 * H])
        a[..., 3 * H :] = sigmoid(a[..., 3 * H :])
        u, f, c, og = (a[..., k * H : (k + 1) * H] for k in range(len(GATES)))
        m[B + o : B + o + n] = f * m[s : s + n] + u * c
        np.tanh(m[B + o : B + o + n], out=tanh_m[:n])
        np.multiply(og, tanh_m[:n], out=h[B + o : B + o + n])


def _backprop_encoder(cells: Sequence[LSTMCellParams], enc: EncodeCache, dh: np.ndarray,
                      sink, shared_rows: bool = False):
    """Hand both directions' gradients to ``sink``, stepping back in lockstep,
    given dLoss/dh, (N, 2, H) with each direction's half in its packed order, or
    with ``shared_rows`` (B, 2, H) in sorted row order, one per row for every
    step. Gate gradients overwrite ``enc.gates`` step by step, and the cell
    states ``enc.m`` are dropped once they are read; each weight gradient is
    then one product over the real positions, written into ``sink.buffer(p)``
    and passed to ``sink.step(p, g)`` after the step loop's last read of the
    weights."""
    live, offsets, starts = enc.live, enc.offsets, enc.starts
    B, H = int(live[0]), cells[0].hidden
    # A row joins the walk at its last step, where nothing flows back into it.
    dh_next, dm_next = np.zeros((2, B, 2, H))
    # Per-step scratch: tanh(m), recomputed from m, and the two raw gradients.
    tanh_m, dh_raw, dm_raw, tmp = np.empty((4, B, 2, H))
    dh_at = [0] * len(live) if shared_rows else offsets.tolist()
    for o, s, n, r in reversed(list(zip(offsets.tolist(), starts.tolist(), live.tolist(), dh_at))):
        g = enc.gates[o : o + n]
        u, f, c, og = (g[..., k * H : (k + 1) * H] for k in range(len(GATES)))
        tm, dhr, dmr, t = tanh_m[:n], dh_raw[:n], dm_raw[:n], tmp[:n]
        np.tanh(enc.m[B + o : B + o + n], out=tm)
        np.add(dh[r : r + n], dh_next[:n], out=dhr)
        # dm = dm_next + dh * o * (1 - tanh(m)^2)
        np.multiply(tm, tm, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(dhr, og, out=dmr)
        dmr *= t
        np.add(dm_next[:n], dmr, out=dmr)
        np.multiply(dmr, f, out=dm_next[:n])
        # Each gate's gradient overwrites its activation once nothing reads it:
        # o: dh * tanh(m) * o * (1 - o)
        np.multiply(dhr, tm, out=t)
        t *= og
        np.subtract(1.0, og, out=og)
        np.multiply(t, og, out=og)
        # f: dm * m_prev * f * (1 - f)
        np.multiply(dmr, enc.m[s : s + n], out=t)
        t *= f
        np.subtract(1.0, f, out=f)
        np.multiply(t, f, out=f)
        # u: dm * c * u * (1 - u), and c: dm * u * (1 - c^2)
        np.multiply(dmr, c, out=t)
        t *= u
        np.multiply(dmr, u, out=tm)
        np.subtract(1.0, u, out=u)
        np.multiply(t, u, out=u)
        np.multiply(c, c, out=c)
        np.subtract(1.0, c, out=c)
        np.multiply(tm, c, out=c)
        if o:  # step 0's state is the zero start state: nothing flows into it
            for d, cell in enumerate(cells):
                np.matmul(g[:, d], cell.w.value, out=dh_next[:n, d])
    # Freed before the weight-gradient products gather their inputs.
    del dh_next, dm_next, tanh_m, dh_raw, dm_raw, tmp
    enc.m = None
    # Position offsets[t] + k entered step t with the state in row starts[t] + k.
    h_in = np.arange(len(enc.ids)) + np.repeat(starts - offsets, live)
    for d, cell in enumerate(cells):
        da = enc.gates[:, d]
        sink.step(cell.w, np.matmul(da.T, enc.states[h_in, d], out=sink.buffer(cell.w)))
        sink.step(cell.i, np.matmul(da.T, enc.emb[enc.ids[:, d]], out=sink.buffer(cell.i)))
        sink.step(cell.b, np.sum(da, axis=0, out=sink.buffer(cell.b)))


class AdrModel:
    """Encoder + both task heads, with frozen word embeddings as input.

    The weights are Glorot draws from ``seed``; ``load_checkpoint``, which
    overwrites every weight and swaps in a read-only mapping of the file's
    table, builds the model with ``_draw_weights=False``."""

    def __init__(
        self,
        embeddings: np.ndarray,
        hidden: int,
        drug_count: int,
        seed: int,
        vocab_tokens: Optional[List[str]] = None,
        drug_names: Optional[List[str]] = None,
        *,
        _draw_weights: bool = True,
    ):
        if hidden < 1:
            raise ValueError("hidden must be >= 1")
        if drug_count < 2:
            raise ValueError("drug catalog must contain at least 2 names")
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        self.emb = self.embeddings.shape[1]
        self.hidden = hidden
        self.drug_count = drug_count
        self.seed = seed
        self.vocab_tokens = vocab_tokens
        self.drug_names = drug_names
        rng = np.random.default_rng(seed) if _draw_weights else None
        try:
            self.cells = (  # forward, then backward direction
                LSTMCellParams("fwd", hidden, self.emb, rng),
                LSTMCellParams("bwd", hidden, self.emb, rng),
            )
        except (MemoryError, ValueError) as exc:  # numpy refuses a 4H x H array that large
            raise ValueError(f"hidden {hidden} is too large: {exc}") from None
        self.drug_head = LinearHead("drug", drug_count, 2 * hidden, rng)
        self.tag_head = LinearHead("tag", len(TagLabel), 2 * hidden, rng)

    # -- parameter groups ---------------------------------------------------

    def encoder_parameters(self) -> List[Parameter]:
        return [p for cell in self.cells for p in cell.params()]

    def drug_parameters(self) -> List[Parameter]:
        return self.encoder_parameters() + self.drug_head.params()

    def tag_parameters(self) -> List[Parameter]:
        return self.encoder_parameters() + self.tag_head.params()

    # -- shared encoder -----------------------------------------------------

    def encode_batch(self, indices: np.ndarray, lengths: np.ndarray) -> EncodeCache:
        """Both encoder directions over a padded batch: the one forward. Both
        heads and ``predict_*`` call it, and perfbench times it as ``model.encode``.

        ``indices`` is (B, T) token ids; an entry past its row's length is
        never read, so any id may pad. ``lengths`` is (B,), each in [1, T],
        else ValueError. Returns the batch's :class:`EncodeCache`: its N real
        positions packed time-major, rows longest first, with the gate
        activations, cell states and outputs that the heads read and BPTT
        consumes. A huge but finite embedding row that overflows the gate
        sums raises NumericalError, never NaN states."""
        indices = np.asarray(indices)
        lengths = np.asarray(lengths)
        B, T = indices.shape
        if np.any(lengths < 1) or np.any(lengths > T):
            raise ValueError("valid lengths must be in [1, T]")
        # Longest rows first, so the rows live at step t are one prefix in both
        # directions; the backward direction reads each row from its last token.
        order = np.argsort(-lengths, kind="stable")
        live = B - np.cumsum(np.bincount(lengths))[: lengths.max()]
        offsets = np.cumsum(live) - live
        cols = np.repeat(np.arange(len(live)), live)
        k = np.arange(len(cols)) - offsets[cols]  # rank of the position's row in order
        rows = order[k]
        rev = offsets[lengths[rows] - 1 - cols] + k
        ids = indices[rows, cols]
        enc = EncodeCache(lengths=lengths, rows=rows, cols=cols, rev=rev, live=live,
                          offsets=offsets, starts=np.concatenate(([0], live[0] + offsets[:-1])),
                          emb=self.embeddings, ids=np.stack((ids, ids[rev]), axis=1))
        # A huge but finite embedding row can overflow the gate sums to inf,
        # and then to NaN states that would tag silently.
        try:
            with np.errstate(over="raise", invalid="raise"):
                _run_encoder(self.cells, enc)
        except FloatingPointError as exc:
            raise NumericalError(f"encoder forward overflowed: {exc}") from exc
        return enc

    # -- softmax cross-entropy, shared by both heads ---------------------------

    def _loss(self, head: LinearHead, enc: EncodeCache, x: np.ndarray, targets) -> tuple:
        """Cross-entropy of ``head``'s softmax over the rows of ``x`` against
        ``targets``, summed and divided by the batch's B rows. Returns (loss,
        cache) for the head's backward."""
        probs = softmax_rows(head.logits(x))
        picked = np.maximum(probs[np.arange(len(targets)), targets], PROB_FLOOR)
        loss = float(-np.log(picked).sum() / len(enc.lengths))
        return loss, LossCache(enc=enc, x=x, probs=probs, targets=targets, head=head)

    def _backward_head(self, head: LinearHead, cache: LossCache, sink, scale) -> tuple:
        """Spend ``head``'s loss cache: hand ``sink`` the head's gradients,
        after reading its weights, and return (enc, dLoss/dx).
        ``scale(dlogits, B)`` divides the logits' gradient by B in place and
        returns it."""
        if cache is None or cache.head is not head or cache.enc is None:
            raise RuntimeError("backward requires the unspent cache from the loss of the same head")
        enc, x, probs, targets = cache.enc, cache.x, cache.probs, cache.targets
        # Spent: a second backward would double-count, and the caller's handle
        # on the cache must not keep the arrays alive.
        cache.enc = cache.x = cache.probs = cache.targets = None
        probs[np.arange(len(targets)), targets] -= 1.0  # no one else reads probs now
        dlogits = scale(probs, len(enc.lengths))
        dx = dlogits @ head.w.value  # read before the sink may update the head
        sink.step(head.w, np.matmul(dlogits.T, x, out=sink.buffer(head.w)))
        sink.step(head.b, np.sum(dlogits, axis=0, out=sink.buffer(head.b)))
        return enc, dx

    # -- drug-prediction head -----------------------------------------------

    def _pool(self, enc: EncodeCache) -> np.ndarray:
        """Mean-pooled encoder states (B, 2H) over real positions."""
        live = enc.live
        B = live[0]
        # Each row's states are added left to right: step 0 of every row,
        # then one add per step over its live rows, longest first. The
        # forward half is read in place; the backward half of the same
        # tokens is gathered step by step through ``rev``.
        hs = enc.states[B:]
        summed = np.empty((B, 2, self.hidden))
        summed[:, 0] = hs[:B, 0]
        summed[:, 1] = hs[enc.rev[:B], 1]
        for o, n in zip(enc.offsets[1:].tolist(), live[1:].tolist()):
            summed[:n, 0] += hs[o : o + n, 0]
            summed[:n, 1] += hs[enc.rev[o : o + n], 1]
        pooled = np.empty((B, 2 * self.hidden))
        pooled[enc.rows[:B]] = summed.reshape(B, -1)
        pooled /= enc.lengths[:, None]
        return pooled

    def drug_loss(self, indices, lengths, labels) -> tuple:
        """Mean cross-entropy of the masked-drug classifier over a batch.

        Returns (loss, cache); pass the cache to :meth:`backward_drug`.
        """
        enc = self.encode_batch(indices, lengths)
        return self._loss(self.drug_head, enc, self._pool(enc), np.asarray(labels))

    def backward_drug(self, cache: LossCache, sink):
        """Hand every gradient of the drug group to ``sink`` (see
        :func:`_backprop_encoder`), the head's first."""
        enc, dpooled = self._backward_head(self.drug_head, cache, sink, operator.itruediv)
        dpooled /= enc.lengths[:, None]
        B = len(enc.lengths)
        # Step t's live rows are the sorted prefix rows[:n] in both directions.
        dh = dpooled[enc.rows[:B]].reshape(B, 2, self.hidden)
        _backprop_encoder(self.cells, enc, dh, sink, shared_rows=True)

    def predict_drug_batch(self, indices, lengths) -> np.ndarray:
        """Drug distributions (B, D) for a padded batch."""
        return softmax_rows(self.drug_head.logits(self._pool(self.encode_batch(indices, lengths))))

    # -- tagging head ---------------------------------------------------------

    def tag_loss(self, indices, lengths, tags) -> tuple:
        """Per-sequence sum of cross-entropy over the real positions, averaged
        over the batch; tags past a row's length are not read. Returns (loss,
        cache) for :meth:`backward_tags`.
        """
        enc = self.encode_batch(indices, lengths)
        tags = np.asarray(tags)
        if tags.shape != np.shape(indices):
            raise ValueError(f"tags {tags.shape} must align with tokens {np.shape(indices)}")
        tags = tags[enc.rows, enc.cols]
        if tags.min() < 0 or tags.max() >= int(TagLabel.PAD):
            raise ValueError("a tag at a real position must be I-ADR, I-IND or O (0, 1 or 2)")
        return self._loss(self.tag_head, enc, enc.h, tags)

    def backward_tags(self, cache: LossCache, sink):
        """Hand every gradient of the tag group to ``sink``, as
        :meth:`backward_drug` does."""
        # Times 1/B, not over B: the two can differ in the last bit, and every
        # trained checkpoint was written with the product.
        enc, dh = self._backward_head(self.tag_head, cache, sink,
                                      lambda d, B: operator.imul(d, 1.0 / B))
        dh = dh.reshape(-1, 2, self.hidden)
        dh[:, 1] = dh[enc.rev, 1]  # into the backward direction's order
        _backprop_encoder(self.cells, enc, dh, sink)

    def predict_tag_batch(self, indices, lengths) -> np.ndarray:
        """Greedy tag ids (B, T) for a padded batch; PAD past a row's length."""
        enc = self.encode_batch(indices, lengths)
        out = np.full(np.shape(indices), int(TagLabel.PAD))
        out[enc.rows, enc.cols] = self.tag_head.logits(enc.h).argmax(axis=1)
        return out

    def predict_tags(self, token_indices: Sequence[int]) -> List[TagLabel]:
        """Greedy per-position tags for one unpadded sequence."""
        row = self.predict_tag_batch([token_indices], [len(token_indices)])[0]
        return [TagLabel(int(i)) for i in row]


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

# The self-check's tiny model (embedding width, hidden size, timesteps, drug
# classes), its central-difference step and the relative error it accepts.
GRADCHECK_EMB, GRADCHECK_HIDDEN, GRADCHECK_TIMESTEPS, GRADCHECK_DRUGS = 5, 7, 4, 3
GRADCHECK_EPSILON = 1e-5
GRADCHECK_TOLERANCE = 1e-4


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


def gradient_check(seed: int) -> List[GradCheckResult]:
    """Compare analytic gradients of both heads against finite differences
    on a randomly initialized tiny model of the GRADCHECK_* shape. Returns one
    result per head."""
    rng = np.random.default_rng(seed)
    vocab_size = 11
    embeddings = rng.normal(scale=0.5, size=(vocab_size, GRADCHECK_EMB))
    model = AdrModel(embeddings, hidden=GRADCHECK_HIDDEN, drug_count=GRADCHECK_DRUGS, seed=seed)
    B, T = 2, GRADCHECK_TIMESTEPS
    indices = rng.integers(1, vocab_size, size=(B, T))
    lengths = np.array([T, max(1, T - 1)])
    labels = rng.integers(0, GRADCHECK_DRUGS, size=B)
    tags = rng.integers(0, len(TagLabel) - 1, size=(B, T))

    results = []
    for head, params, loss, backward, targets in (
        ("drug", model.drug_parameters(), model.drug_loss, model.backward_drug, labels),
        ("tag", model.tag_parameters(), model.tag_loss, model.backward_tags, tags),
    ):
        analytic = Gradients()
        backward(loss(indices, lengths, targets)[1], analytic)
        numeric = finite_difference_gradient(lambda: loss(indices, lengths, targets)[0], params,
                                             GRADCHECK_EPSILON)
        worst = ("", 0.0)
        for p in params:
            rel = _relative_errors(analytic[p.name], numeric[p.name])
            m = float(rel.max()) if rel.size else 0.0
            if m >= worst[1]:
                worst = (p.name, m)
        results.append(
            GradCheckResult(
                head=head,
                seed=seed,
                max_rel_err=worst[1],
                worst_param=worst[0],
                ok=worst[1] < GRADCHECK_TOLERANCE,
            )
        )
    return results
