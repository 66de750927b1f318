import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrtag import training
from adrtag.encoding import TagLabel, decode_spans
from adrtag.evaluation import MatchCounts, approximate_match, evaluate_tagging
from adrtag.model import AdrModel, EncodeCache, LSTMCellParams, LinearHead, gradient_check
from adrtag.numerics import Gradients
from reference import (
    bilstm_forward,
    cross_entropy,
    lstm_cell_step,
    mean_pool,
    packed_oracle,
    predict_drug,
    sequence_loss,
    tag_forward,
)


def make_cell(hidden, emb, seed=0):
    return LSTMCellParams("cell", hidden, emb, np.random.default_rng(seed))


def zero_cell(hidden, emb):
    cell = make_cell(hidden, emb)
    for p in cell.params():
        p.value[...] = 0.0
    return cell


def scalar_cell_reference(cell, h_prev, m_prev, x):
    """Independent scalar trace of one recurrence step (H = E = 1)."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def pre(g):
        k = "ufco".index(g)  # row block k holds gate g; with H = 1 it is row k
        return (
            cell.w.value[k, 0] * h_prev
            + cell.i.value[k, 0] * x
            + cell.b.value[k]
        )

    gu, gf, go = sig(pre("u")), sig(pre("f")), sig(pre("o"))
    gc = math.tanh(pre("c"))
    m = gf * m_prev + gu * gc
    return go * math.tanh(m), m


class TestCellStep:
    def test_zero_parameters_zero_state(self):
        cell = zero_cell(3, 2)
        h, m = lstm_cell_step(cell, np.zeros(3), np.zeros(3), np.array([5.0, -2.0]))
        assert np.array_equal(h, np.zeros(3))
        assert np.array_equal(m, np.zeros(3))

    def test_unit_weights_zero_input(self):
        cell = zero_cell(1, 1)
        for k in range(4):
            cell.w.value[k : k + 1] = 1.0
            cell.i.value[k : k + 1] = 1.0
        h, m = lstm_cell_step(cell, np.zeros(1), np.zeros(1), np.zeros(1))
        assert h[0] == 0.0 and m[0] == 0.0

    def test_matches_scalar_trace(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            cell = make_cell(1, 1, seed=seed)
            h_prev, m_prev, x = rng.normal(size=3)
            h, m = lstm_cell_step(cell, np.array([h_prev]), np.array([m_prev]), np.array([x]))
            href, mref = scalar_cell_reference(cell, h_prev, m_prev, x)
            assert h[0] == pytest.approx(href, abs=1e-12)
            assert m[0] == pytest.approx(mref, abs=1e-12)

    def test_hidden_state_bounded(self):
        cell = make_cell(4, 3, seed=2)
        h, _ = lstm_cell_step(cell, np.zeros(4), np.zeros(4), np.full(3, 100.0))
        assert np.all(np.abs(h) < 1.0)

    def test_dimension_mismatch(self):
        cell = make_cell(3, 2)
        with pytest.raises(ValueError, match=r"expected h \(3,\) and x \(2,\), got \(4,\)"):
            lstm_cell_step(cell, np.zeros(4), np.zeros(3), np.zeros(2))


def padded_states(model, indices, lengths):
    """The packed encoder states ``enc.h`` of the batch scattered to
    (B, T, 2H) by position; zero where a row has no token."""
    enc = model.encode_batch(indices, lengths)
    h = np.zeros(np.shape(indices) + enc.h.shape[1:])
    h[enc.rows, enc.cols] = enc.h
    return h


def make_encoder(hidden, emb, seed=0):
    rng = np.random.default_rng(seed)
    return LSTMCellParams("fwd", hidden, emb, rng), LSTMCellParams("bwd", hidden, emb, rng)


class TestBiLSTM:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            bilstm_forward(make_encoder(2, 2), [])

    def test_single_position_is_both_first_steps(self):
        enc = make_encoder(3, 2, seed=1)
        x = np.array([0.3, -0.7])
        out = bilstm_forward(enc, [x])
        hf, _ = lstm_cell_step(enc[0], np.zeros(3), np.zeros(3), x)
        hb, _ = lstm_cell_step(enc[1], np.zeros(3), np.zeros(3), x)
        assert np.array_equal(out[0], np.concatenate([hf, hb]))

    def test_zero_parameters_zero_output(self):
        enc = zero_cell(2, 2), zero_cell(2, 2)
        out = bilstm_forward(enc, [np.ones(2), np.ones(2)])
        assert all(np.array_equal(o, np.zeros(4)) for o in out)

    def test_reversal_duality(self):
        # reversed input with swapped cells = original output reversed with
        # halves swapped, exactly
        enc = make_encoder(3, 2, seed=4)
        rng = np.random.default_rng(4)
        xs = [rng.normal(size=2) for _ in range(5)]
        out = bilstm_forward(enc, xs)
        swapped = enc[::-1]
        out_rev = bilstm_forward(swapped, xs[::-1])
        for t in range(5):
            expected = np.concatenate([out[t][3:], out[t][:3]])
            assert np.array_equal(out_rev[4 - t], expected)

    def test_batched_encoder_matches_functional_path(self):
        model = AdrModel(
            np.random.default_rng(0).normal(size=(9, 4)), hidden=3, drug_count=2, seed=7
        )
        indices = np.array([[1, 2, 3, 4], [5, 6, 0, 0]])
        lengths = np.array([4, 2])
        h = padded_states(model, indices, lengths)
        for b in range(2):
            seq = [model.embeddings[i] for i in indices[b, : lengths[b]]]
            ref = bilstm_forward(model.cells, seq)
            for t in range(lengths[b]):
                np.testing.assert_allclose(h[b, t], ref[t], atol=1e-12)


class TestPoolingAndHeads:
    def test_mean_pool_constant(self):
        v = np.array([1.0, 2.0])
        assert np.array_equal(mean_pool([v, v, v], 3), v)

    def test_mean_pool_average(self):
        out = mean_pool([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 2)
        assert np.array_equal(out, [0.5, 0.5])

    def test_mean_pool_excludes_padding(self):
        seq = [np.array([2.0]), np.array([99.0]), np.array([99.0])]
        assert mean_pool(seq, 1)[0] == 2.0

    def test_mean_pool_zero_length_rejected(self):
        with pytest.raises(ValueError):
            mean_pool([np.zeros(2)], 0)

    def test_zero_drug_head_uniform(self):
        head = LinearHead("drug", 5, 4, np.random.default_rng(0))
        head.w.value[...] = 0.0
        np.testing.assert_allclose(predict_drug(head, np.ones(4)), [0.2] * 5, rtol=1e-12)

    def test_drug_head_bias_proportions(self):
        head = LinearHead("drug", 3, 4, np.random.default_rng(0))
        head.w.value[...] = 0.0
        head.b.value[...] = np.log([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            predict_drug(head, np.zeros(4)), [1 / 6, 2 / 6, 3 / 6], rtol=1e-12
        )

    def test_drug_head_sums_to_one(self):
        head = LinearHead("drug", 7, 4, np.random.default_rng(3))
        p = predict_drug(head, np.random.default_rng(4).normal(size=4))
        assert abs(p.sum() - 1.0) < 1e-9

    def test_tag_forward_uniform_and_pointwise(self):
        head = LinearHead("tag", 4, 6, np.random.default_rng(1))
        head.w.value[...] = 0.0
        head.b.value[...] = 0.0
        h = np.random.default_rng(2).normal(size=6)
        out = tag_forward(head, [h, h])
        np.testing.assert_allclose(out[0], [0.25] * 4, rtol=1e-12)
        assert np.array_equal(out[0], out[1])

    def test_tag_forward_rows_normalized(self):
        head = LinearHead("tag", 4, 6, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        for dist in tag_forward(head, [rng.normal(size=6) for _ in range(3)]):
            assert abs(dist.sum() - 1.0) < 1e-9


class TestSequenceLoss:
    def test_perfect_predictions(self):
        preds = [np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0])]
        gold = [TagLabel.I_ADR, TagLabel.O]
        assert sequence_loss(preds, gold) == 0.0

    def test_uniform_predictions(self):
        preds = [np.full(4, 0.25)] * 4
        gold = [TagLabel.O, TagLabel.I_ADR, TagLabel.O, TagLabel.PAD]
        assert sequence_loss(preds, gold) == pytest.approx(3 * math.log(4))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        preds = []
        gold = []
        for _ in range(6):
            p = rng.random(4)
            preds.append(p / p.sum())
            gold.append(TagLabel(int(rng.integers(0, 4))))
        expected = sum(
            cross_entropy(p, int(t)) for p, t in zip(preds, gold) if t != TagLabel.PAD
        )
        assert sequence_loss(preds, gold) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 predictions vs 2 gold tags"):
            sequence_loss([np.full(4, 0.25)], [TagLabel.O, TagLabel.O])


class TestBackward:
    def test_gradients_match_finite_differences(self):
        for seed in (0, 1):
            for res in gradient_check(seed):
                assert res.ok, f"{res.head} head, seed {seed}: {res}"

    def test_directional_derivatives_at_paper_shape(self):
        """H=500, E=400 and a batch of 16 unsorted lengths 3-30: the analytic
        gradient along random unit directions matches a central difference."""
        rng = np.random.default_rng(0)
        model = AdrModel(rng.normal(scale=0.1, size=(50, 400)), hidden=500,
                         drug_count=10, seed=0)
        lengths = rng.permutation(np.linspace(3, 30, 16).astype(int))
        idx, n = training.pad_batch([rng.integers(1, 50, size=k) for k in lengths], 30)
        tags = np.where(idx > 0, rng.integers(0, int(TagLabel.PAD), size=idx.shape),
                        int(TagLabel.PAD))
        labels = rng.integers(0, 10, size=16)
        eps = 1e-5
        for params, loss, backward in (
            (model.drug_parameters(), lambda: model.drug_loss(idx, n, labels),
             model.backward_drug),
            (model.tag_parameters(), lambda: model.tag_loss(idx, n, tags),
             model.backward_tags),
        ):
            grads = Gradients()
            backward(loss()[1], grads)
            for _ in range(3):
                d = [rng.normal(size=p.value.shape) for p in params]
                norm = np.sqrt(sum((x * x).sum() for x in d))
                analytic = sum((grads[p.name] * x).sum() for p, x in zip(params, d)) / norm
                for p, x in zip(params, d):
                    p.value += eps * x / norm
                plus = loss()[0]
                for p, x in zip(params, d):
                    p.value -= 2 * eps * x / norm
                minus = loss()[0]
                for p, x in zip(params, d):
                    p.value += eps * x / norm
                numeric = (plus - minus) / (2 * eps)
                assert abs(analytic - numeric) < 1e-4 * max(abs(analytic), abs(numeric))

    def test_tag_loss_leaves_drug_head_untouched(self):
        model = AdrModel(
            np.random.default_rng(1).normal(size=(8, 4)), hidden=3, drug_count=3, seed=2
        )
        _, cache = model.tag_loss(
            np.array([[1, 2, 3]]), np.array([3]), np.array([[0, 2, 2]])
        )
        grads = Gradients()
        model.backward_tags(cache, grads)
        assert sorted(grads) == sorted(p.name for p in model.tag_parameters())
        assert any(np.any(grads[p.name] != 0) for p in model.encoder_parameters())

    @pytest.mark.parametrize("bad", [int(TagLabel.PAD), len(TagLabel), -1])
    def test_tag_loss_refuses_an_unscored_tag_at_a_real_position(self, bad):
        """Every real position is scored as I-ADR, I-IND or O; a tag past a
        row's length is not read, so any value may fill it."""
        model = AdrModel(
            np.random.default_rng(1).normal(size=(8, 4)), hidden=3, drug_count=3, seed=2
        )
        idx, lengths = np.array([[1, 2, 3], [4, 5, 0]]), np.array([3, 2])
        model.tag_loss(idx, lengths, np.array([[0, 1, 2], [2, 2, bad]]))
        with pytest.raises(ValueError, match="must be I-ADR, I-IND or O"):
            model.tag_loss(idx, lengths, np.array([[0, 1, 2], [2, bad, 0]]))

    def test_drug_loss_leaves_tag_head_untouched(self):
        model = AdrModel(
            np.random.default_rng(1).normal(size=(8, 4)), hidden=3, drug_count=3, seed=2
        )
        _, cache = model.drug_loss(np.array([[1, 2, 3]]), np.array([3]), np.array([1]))
        grads = Gradients()
        model.backward_drug(cache, grads)
        assert sorted(grads) == sorted(p.name for p in model.drug_parameters())

    @pytest.mark.parametrize("head", ["drug", "tag"])
    def test_backward_requires_forward_cache(self, head):
        """Each head's backward takes only an unspent cache from its own
        loss; the other head's cache raises the same RuntimeError, and a
        spent cache holds no array."""
        model = AdrModel(
            np.random.default_rng(1).normal(size=(8, 4)), hidden=3, drug_count=3, seed=2
        )
        idx, lengths = np.array([[1, 2]]), np.array([2])
        caches = {"drug": lambda: model.drug_loss(idx, lengths, np.array([0]))[1],
                  "tag": lambda: model.tag_loss(idx, lengths, np.array([[0, 2]]))[1]}
        backward = model.backward_drug if head == "drug" else model.backward_tags
        with pytest.raises(RuntimeError):
            backward(None, Gradients())
        other = caches["tag" if head == "drug" else "drug"]()
        with pytest.raises(RuntimeError):
            backward(other, Gradients())
        assert other.enc is not None  # a refused cache is not spent
        cache = caches[head]()
        backward(cache, Gradients())
        assert not any(isinstance(v, (np.ndarray, EncodeCache)) for v in vars(cache).values())
        with pytest.raises(RuntimeError):
            backward(cache, Gradients())  # cache already spent

    def test_gradcheck_detects_injected_sign_error(self, monkeypatch):
        import adrtag.model as m

        original = m._backprop_encoder

        def corrupted(cells, enc, dh, sink, shared_rows=False):
            original(cells, enc, -dh, sink, shared_rows)

        monkeypatch.setattr(m, "_backprop_encoder", corrupted)
        results = m.gradient_check(0)
        assert not all(r.ok for r in results)


class TestSharing:
    def test_heads_share_encoder_parameter_objects(self):
        model = AdrModel(
            np.random.default_rng(0).normal(size=(6, 3)), hidden=2, drug_count=2, seed=0
        )
        drug_ids = {id(p) for p in model.drug_parameters()}
        tag_ids = {id(p) for p in model.tag_parameters()}
        enc_ids = {id(p) for p in model.encoder_parameters()}
        assert enc_ids <= drug_ids and enc_ids <= tag_ids

    def test_probability_outputs_normalized(self):
        model = AdrModel(
            np.random.default_rng(3).normal(size=(9, 4)), hidden=3, drug_count=4, seed=5
        )
        idx = np.array([[1, 2, 3], [4, 5, 0]])
        lengths = np.array([3, 2])
        _, dc = model.drug_loss(idx, lengths, np.array([0, 1]))
        np.testing.assert_allclose(dc.probs.sum(axis=1), 1.0, atol=1e-9)
        _, tc = model.tag_loss(idx, lengths, np.array([[2, 2, 0], [2, 1, 3]]))
        np.testing.assert_allclose(tc.probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_drug_count_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            AdrModel(np.zeros((4, 2)), hidden=2, drug_count=1, seed=0)


class TestFusedLayout:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_fresh_blocks_are_per_gate_glorot_draws(self, seed):
        H, E = 3, 4
        model = AdrModel(np.zeros((5, E)), hidden=H, drug_count=2, seed=seed)
        rng = np.random.default_rng(seed)
        w_bound, i_bound = math.sqrt(6.0 / (2 * H)), math.sqrt(6.0 / (H + E))
        for cell in model.cells:
            assert cell.w.value.shape == (4 * H, H) and cell.i.value.shape == (4 * H, E)
            for k in range(4):  # gates u, f, c, o
                rows = slice(k * H, (k + 1) * H)
                w = rng.uniform(-w_bound, w_bound, size=(H, H))
                i = rng.uniform(-i_bound, i_bound, size=(H, E))
                assert np.array_equal(cell.w.value[rows], w)
                assert np.array_equal(cell.i.value[rows], i)
            expected_b = np.zeros(4 * H)
            expected_b[H : 2 * H] = 1.0  # forget-gate bias
            assert np.array_equal(cell.b.value, expected_b)

    def test_three_parameters_per_direction(self):
        emb = np.zeros((5, 2))
        model = AdrModel(emb, hidden=3, drug_count=2, seed=0)
        assert [p.name for p in model.encoder_parameters()] == [
            "fwd.w", "fwd.i", "fwd.b", "bwd.w", "bwd.i", "bwd.b"
        ]


def _pad_to(rows, width, fill):
    out = np.full((len(rows), width), fill)
    for b, row in enumerate(rows):
        out[b, : len(row)] = row
    return out


@settings(max_examples=30, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    extra=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_extra_padding_changes_nothing(lengths, extra, seed):
    """Losses, states and every gradient of an over-padded batch equal those
    of the batch trimmed to its longest sequence, bit for bit: no product
    reads a padded position. The padded tag cells hold scoreable labels, so
    a tag read past a row's length would change the loss."""
    rng = np.random.default_rng(seed)
    model = AdrModel(rng.normal(size=(10, 4)), hidden=3, drug_count=3, seed=seed)
    lengths = np.array(lengths)
    ids = [rng.integers(1, 10, size=n) for n in lengths]
    tags = [rng.integers(0, int(TagLabel.PAD), size=n) for n in lengths]
    labels = rng.integers(0, 3, size=len(lengths))

    def run(width):
        idx = _pad_to(ids, width, 0)
        gold = rng.integers(0, int(TagLabel.PAD), size=idx.shape)
        for b, row in enumerate(tags):
            gold[b, : len(row)] = row
        drug, dc = model.drug_loss(idx, lengths, labels)
        h = dc.enc.h.copy()
        drug_grads, tag_grads = Gradients(), Gradients()
        model.backward_drug(dc, drug_grads)
        tag, tc = model.tag_loss(idx, lengths, gold)
        model.backward_tags(tc, tag_grads)
        return drug, tag, h, {**{f"drug/{k}": g for k, g in drug_grads.items()},
                              **{f"tag/{k}": g for k, g in tag_grads.items()}}

    T = int(lengths.max())
    trimmed, padded = run(T), run(T + extra)
    assert padded[0] == trimmed[0] and padded[1] == trimmed[1]
    assert np.array_equal(padded[2], trimmed[2])
    assert padded[3].keys() == trimmed[3].keys()
    for name, g in padded[3].items():
        assert np.array_equal(g, trimmed[3][name]), name


def _per_tweet_counts(model, data):
    """Evaluation counts from one ``predict_tags`` call per record."""
    total = MatchCounts()
    for ids, gold, _ in data:
        pred_spans = decode_spans(model.predict_tags(ids))
        gold_spans = decode_spans([TagLabel(t) for t in gold])
        total = total + approximate_match(pred_spans, gold_spans)
    return total


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 7), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_batched_heads_match_reference(lengths, seed, data):
    """Every batched head agrees with the single-sequence reference, for any
    batch size, lengths, order of the sequences and weights."""
    order = data.draw(st.permutations(range(len(lengths))), label="batch order")
    _check_heads_match_reference([lengths[k] for k in order], seed)


@pytest.mark.parametrize("lengths", [[4, 4, 4], [7] * 5, [1], [6]])
def test_constant_live_rows_and_single_row_match_reference(lengths):
    """Equal lengths keep every row live at every step; B=1 is one live row."""
    for seed in range(3):
        _check_heads_match_reference(lengths, seed)


def _check_heads_match_reference(lengths, seed):
    rng = np.random.default_rng(seed)
    model = AdrModel(rng.normal(size=(10, 4)), hidden=3, drug_count=3, seed=seed)
    for head in (model.drug_head, model.tag_head):
        head.b.value[...] = rng.normal(size=head.b.value.shape)
    ids = [rng.integers(1, 10, size=n) for n in lengths]
    tags = [rng.integers(0, int(TagLabel.PAD), size=n) for n in lengths]
    labels = rng.integers(0, 3, size=len(lengths))
    idx, n = training.pad_batch(ids, max_len=7)
    gold = training.pad_batch(tags, max_len=7)[0]

    h_seqs = [bilstm_forward(model.cells, model.embeddings[row]) for row in ids]
    drug_ref = [predict_drug(model.drug_head, mean_pool(h, len(h))) for h in h_seqs]
    close = dict(rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.predict_drug_batch(idx, n), drug_ref, **close)
    drug_loss_ref = np.mean([cross_entropy(p, y) for p, y in zip(drug_ref, labels)])
    np.testing.assert_allclose(model.drug_loss(idx, n, labels)[0], drug_loss_ref, **close)
    tag_loss_ref = np.mean(
        [sequence_loss(tag_forward(model.tag_head, h), t) for h, t in zip(h_seqs, tags)]
    )
    np.testing.assert_allclose(model.tag_loss(idx, n, gold)[0], tag_loss_ref, **close)

    pred = model.predict_tag_batch(idx, n)
    for row, length, seq in zip(pred, n, ids):
        assert [TagLabel(int(t)) for t in row[:length]] == model.predict_tags(seq)
    records = [(seq, list(t), f"r{b}") for b, (seq, t) in enumerate(zip(ids, tags))]
    assert evaluate_tagging(model, records) == _per_tweet_counts(model, records)


class TestPacking:
    """``encode_batch`` sorts rows by length and runs each step on its live
    rows only; no row may see another, or its position in the batch."""

    LENGTHS = [3, 7, 1, 7, 4, 3, 7, 2]  # unsorted, with ties

    def setup_batch(self, seed=0, extra=2):
        rng = np.random.default_rng(seed)
        model = AdrModel(rng.normal(size=(12, 5)), hidden=4, drug_count=3, seed=seed)
        model.tag_head.b.value[...] = rng.normal(size=4)
        ids = [rng.integers(1, 12, size=k) for k in self.LENGTHS]
        idx = _pad_to(ids, max(self.LENGTHS) + extra, 0)
        return model, ids, idx, np.array(self.LENGTHS)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_row_matches_itself_alone(self, seed):
        model, ids, idx, n = self.setup_batch(seed)
        h = padded_states(model, idx, n)
        pred = model.predict_tag_batch(idx, n)
        for b, row in enumerate(ids):
            alone = padded_states(model, [row], [len(row)])[0]
            np.testing.assert_allclose(h[b, : len(row)], alone, rtol=0, atol=1e-13)
            alone_pred = model.predict_tag_batch([row], [len(row)])[0]
            assert np.array_equal(pred[b, : len(row)], alone_pred)
            assert np.all(pred[b, len(row) :] == int(TagLabel.PAD))

    def test_permuting_rows_permutes_states(self):
        model, _, idx, n = self.setup_batch()
        perm = np.random.default_rng(5).permutation(len(n))
        h = padded_states(model, idx, n)
        np.testing.assert_allclose(padded_states(model, idx[perm], n[perm]),
                                   h[perm], rtol=0, atol=1e-13)

    def test_states_are_kept_at_real_positions_only(self):
        model, _, idx, n = self.setup_batch()
        assert model.encode_batch(idx, n).h.shape == (n.sum(), 2 * model.hidden)


def test_drug_head_builds_no_copy_of_the_states():
    """The drug head pools straight from the recurrence's own state array,
    so its loss cache holds no (N, 2H) ``EncodeCache.h``: building that copy
    before the backward pass raises the peak by at least the copy's size."""
    rng = np.random.default_rng(8)
    V, E, H, B = 30, 8, 64, 32
    model = AdrModel(rng.normal(scale=0.5, size=(V, E)), hidden=H, drug_count=4, seed=8)
    lengths = rng.integers(5, 20, size=B)
    idx = rng.integers(1, V, size=(B, int(lengths.max())))
    labels = rng.integers(0, 4, size=B)

    def peak(read_h):
        _, cache = model.drug_loss(idx, lengths, labels)
        assert "h" not in vars(cache.enc)
        tracemalloc.start()
        try:
            h = cache.enc.h if read_h else None
            model.backward_drug(cache, Gradients())
            return tracemalloc.get_traced_memory()[1], h
        finally:
            tracemalloc.stop()

    peak(False)  # warm up one-time allocations
    without, _ = peak(False)
    with_h, h = peak(True)
    assert with_h - without >= h.nbytes == lengths.sum() * 2 * H * 8


def test_training_step_holds_only_what_bptt_reads():
    """A pretraining step, forward plus backward plus Adam, peaks above the
    moments, the gradient workspace and Adam's update scratch at the arrays
    BPTT reads (gates, h and m over the N positions) and a bounded number of
    (B, 2, H) per-step arrays. tanh(m) is recomputed per step, not stored for
    every position, m is freed before the weight-gradient products gather h,
    and no step holds a gradient for every parameter."""
    rng = np.random.default_rng(9)
    V, E, H, B, D = 50, 8, 64, 32, 5
    model = AdrModel(rng.normal(scale=0.5, size=(V, E)), hidden=H, drug_count=D, seed=9)
    lengths = rng.integers(20, 41, size=B)
    idx = rng.integers(1, V, size=(B, int(lengths.max())))
    labels = rng.integers(0, D, size=B)
    optimizer = training.Adam(model.drug_parameters(), 0.001)
    optimizer.update(partial(model.backward_drug, model.drug_loss(idx[:1], lengths[:1],
                                                                  labels[:1])[1]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        optimizer.update(partial(model.backward_drug, model.drug_loss(idx, lengths, labels)[1]))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    N = int(lengths.sum())
    gates = N * 2 * 4 * H * 8
    h_and_m = 2 * (B + N) * 2 * H * 8
    per_step = B * 2 * H * 8
    assert peak <= gates + h_and_m + 16 * per_step
    # The bound leaves less room than one more (N, 2, H) array.
    assert N * 2 * H * 8 > 16 * per_step


class TestLockstepMatchesPerDirectionLoops:
    """The lockstep step loops give the same bits as one step loop per
    direction (``reference.packed_oracle``): states, losses and every
    gradient of both heads."""

    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("hidden", [8, 32])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical(self, batch, hidden, seed):
        rng = np.random.default_rng(100 * batch + hidden + seed)
        V, T, D = 20, 9, 4
        model = AdrModel(rng.normal(size=(V, 6)), hidden=hidden, drug_count=D, seed=seed)
        model.drug_head.b.value[...] = rng.normal(size=D)
        model.tag_head.b.value[...] = rng.normal(size=len(TagLabel))
        lengths = rng.integers(1, T + 1, size=batch)
        if batch > 1:
            lengths[-1] = lengths[0]  # a tie
        idx = rng.integers(1, V, size=(batch, T))
        labels = rng.integers(0, D, size=batch)
        tags = rng.integers(0, int(TagLabel.PAD), size=(batch, T))
        want = packed_oracle(model, idx, lengths, labels, tags)

        assert np.array_equal(model.encode_batch(idx, lengths).h, want["h"])
        for head, loss, backward, args in (
            ("drug", model.drug_loss, model.backward_drug, labels),
            ("tag", model.tag_loss, model.backward_tags, tags),
        ):
            value, cache = loss(idx, lengths, args)
            grads = Gradients()
            backward(cache, grads)
            assert value == want[f"{head}_loss"]
            assert grads.keys() == want[head].keys()
            for name, g in grads.items():
                assert np.array_equal(g, want[head][name]), (head, name)


@pytest.mark.parametrize("inference", ["evaluate_tagging", "held-out-pass"])
def test_inference_runs_in_chunks(monkeypatch, inference):
    """More records than two chunks: one batched forward per chunk of
    ``INFERENCE_BATCH``, none to ``predict_tags``, and the result a per-tweet
    pass gives. ``evaluate_tagging`` chunks its records in length order, each
    padded to its longest; ``pretrain``'s held-out pass chunks the held-out
    tweets in corpus order, each cut at ``max_len``."""
    B = training.INFERENCE_BATCH
    rng = np.random.default_rng(3)
    model = AdrModel(rng.normal(size=(12, 4)), hidden=3, drug_count=2, seed=3)
    model.tag_head.b.value[...] = [0.5, -0.5, 0.0, 0.0]
    name = "predict_tag_batch" if inference == "evaluate_tagging" else "predict_drug_batch"
    batched, calls = getattr(model, name), []

    def recording(idx, n):
        calls.append(np.array(idx))
        return batched(idx, n)

    if inference == "evaluate_tagging":
        records = []
        for r in range(2 * B + 5):
            length = int(rng.integers(1, 13))
            records.append(
                (list(rng.integers(1, 12, size=length)),
                 list(rng.integers(0, int(TagLabel.PAD), size=length)), f"r{r}")
            )
        expected = _per_tweet_counts(model, records)
        assert expected.predicted > 0 and expected.gold > 0
        monkeypatch.setattr(model, name, recording)
        monkeypatch.setattr(model, "predict_tags", None)
        got = evaluate_tagging(model, records)
        scored, max_len = sorted(records, key=lambda r: len(r[0])), None
    else:
        train_idx, held_idx = training.heldout_split([f"r{r}" for r in range(3000)])
        records = [(list(rng.integers(1, 12, size=int(rng.integers(1, 13)))),
                    int(rng.integers(0, 2)), f"r{r}")
                   for r in sorted(held_idx[: 2 * B + 5] + train_idx[:20])]
        monkeypatch.setattr(model, name, recording)
        monkeypatch.setattr(model, "predict_tags", None)
        max_len = 6
        config = training.pretrain_config(epochs=1, max_len=max_len)
        got = training.pretrain(records, model, config)[0]["accuracy"]
        scored = [records[i] for i in training.heldout_split([r[2] for r in records])[1]]
        hits = sum(int(batched([ids[:max_len]], [min(len(ids), max_len)]).argmax() == label)
                   for ids, label, _ in scored)
        expected = hits / len(scored)
        assert 0 < expected < 1
    assert got == expected
    assert [len(idx) for idx in calls] == [B, B, 5]
    cut = [list(r[0][:max_len]) for r in scored]
    for k, idx in enumerate(calls):
        chunk = cut[k * B : (k + 1) * B]
        assert idx.shape[1] == max(map(len, chunk))
        for row, ids in zip(idx, chunk):
            assert list(row[: len(ids)]) == ids
