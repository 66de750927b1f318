import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrtag import training
from adrtag.encoding import TagLabel, decode_spans
from adrtag.evaluation import MatchCounts, approximate_match, evaluate_tagging
from adrtag.model import AdrModel, BiLSTMParams, LSTMCellParams, LinearHead, gradient_check
from adrtag.numerics import DimensionError
from reference import (
    bilstm_forward,
    cross_entropy,
    lstm_cell_step,
    mean_pool,
    predict_drug,
    sequence_loss,
    tag_forward,
)


def make_cell(hidden, emb, seed=0, gate_biases=True):
    return LSTMCellParams("cell", hidden, emb, np.random.default_rng(seed), gate_biases)


def zero_cell(hidden, emb):
    cell = make_cell(hidden, emb, gate_biases=True)
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
        with pytest.raises(DimensionError):
            lstm_cell_step(cell, np.zeros(4), np.zeros(3), np.zeros(2))


def make_encoder(hidden, emb, seed=0):
    rng = np.random.default_rng(seed)
    return BiLSTMParams(
        LSTMCellParams("fwd", hidden, emb, rng),
        LSTMCellParams("bwd", hidden, emb, rng),
    )


class TestBiLSTM:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            bilstm_forward(make_encoder(2, 2), [])

    def test_single_position_is_both_first_steps(self):
        enc = make_encoder(3, 2, seed=1)
        x = np.array([0.3, -0.7])
        out = bilstm_forward(enc, [x])
        hf, _ = lstm_cell_step(enc.forward_cell, np.zeros(3), np.zeros(3), x)
        hb, _ = lstm_cell_step(enc.backward_cell, np.zeros(3), np.zeros(3), x)
        assert np.array_equal(out[0], np.concatenate([hf, hb]))

    def test_zero_parameters_zero_output(self):
        enc = BiLSTMParams(zero_cell(2, 2), zero_cell(2, 2))
        out = bilstm_forward(enc, [np.ones(2), np.ones(2)])
        assert all(np.array_equal(o, np.zeros(4)) for o in out)

    def test_reversal_duality(self):
        # reversed input with swapped cells = original output reversed with
        # halves swapped, exactly
        enc = make_encoder(3, 2, seed=4)
        rng = np.random.default_rng(4)
        xs = [rng.normal(size=2) for _ in range(5)]
        out = bilstm_forward(enc, xs)
        swapped = BiLSTMParams(enc.backward_cell, enc.forward_cell)
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
        enc = model.encode_batch(indices, lengths)
        for b in range(2):
            seq = [model.embeddings[i] for i in indices[b, : lengths[b]]]
            ref = bilstm_forward(model.encoder, seq)
            for t in range(lengths[b]):
                np.testing.assert_allclose(enc.h[b, t], ref[t], atol=1e-12)


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
        with pytest.raises(DimensionError):
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
            model.zero_grad()
            backward(loss()[1])
            for _ in range(3):
                d = [rng.normal(size=p.value.shape) for p in params]
                norm = np.sqrt(sum((x * x).sum() for x in d))
                analytic = sum((p.grad * x).sum() for p, x in zip(params, d)) / norm
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
        model.zero_grad()
        _, cache = model.tag_loss(
            np.array([[1, 2, 3]]), np.array([3]), np.array([[0, 2, 2]])
        )
        model.backward_tags(cache)
        assert np.array_equal(model.drug_head.w.grad, np.zeros_like(model.drug_head.w.grad))
        assert any(np.any(p.grad != 0) for p in model.encoder_parameters())

    def test_drug_loss_leaves_tag_head_untouched(self):
        model = AdrModel(
            np.random.default_rng(1).normal(size=(8, 4)), hidden=3, drug_count=3, seed=2
        )
        model.zero_grad()
        _, cache = model.drug_loss(np.array([[1, 2, 3]]), np.array([3]), np.array([1]))
        model.backward_drug(cache)
        assert np.array_equal(model.tag_head.w.grad, np.zeros_like(model.tag_head.w.grad))

    def test_backward_requires_forward_cache(self):
        model = AdrModel(
            np.random.default_rng(1).normal(size=(8, 4)), hidden=3, drug_count=3, seed=2
        )
        with pytest.raises(RuntimeError):
            model.backward_drug(None)
        _, cache = model.drug_loss(np.array([[1, 2]]), np.array([2]), np.array([0]))
        model.backward_drug(cache)
        with pytest.raises(RuntimeError):
            model.backward_drug(cache)  # cache already spent

    def test_gradcheck_detects_injected_sign_error(self, monkeypatch):
        import adrtag.model as m

        original = m._backprop_direction

        def corrupted(cell, cache, dhs):
            original(cell, cache, -dhs)

        monkeypatch.setattr(m, "_backprop_direction", corrupted)
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
        np.testing.assert_allclose(tc.probs.sum(axis=2), 1.0, atol=1e-9)

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
        for cell in (model.encoder.forward_cell, model.encoder.backward_cell):
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
        with_b = AdrModel(emb, hidden=3, drug_count=2, seed=0)
        without_b = AdrModel(emb, hidden=3, drug_count=2, seed=0, gate_biases=False)
        assert [p.name for p in with_b.encoder_parameters()] == [
            "fwd.w", "fwd.i", "fwd.b", "bwd.w", "bwd.i", "bwd.b"
        ]
        assert [p.name for p in without_b.encoder_parameters()] == [
            "fwd.w", "fwd.i", "bwd.w", "bwd.i"
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
    """Losses, real-position states and every gradient of an over-padded
    batch equal those of the batch trimmed to its longest sequence."""
    rng = np.random.default_rng(seed)
    model = AdrModel(rng.normal(size=(10, 4)), hidden=3, drug_count=3, seed=seed)
    lengths = np.array(lengths)
    ids = [rng.integers(1, 10, size=n) for n in lengths]
    tags = [rng.integers(0, int(TagLabel.PAD), size=n) for n in lengths]
    labels = rng.integers(0, 3, size=len(lengths))

    def run(width):
        idx = _pad_to(ids, width, 0)
        model.zero_grad()
        drug, dc = model.drug_loss(idx, lengths, labels)
        h = dc.enc.h.copy()
        model.backward_drug(dc)
        tag, tc = model.tag_loss(idx, lengths, _pad_to(tags, width, int(TagLabel.PAD)))
        model.backward_tags(tc)
        return drug, tag, h, [p.grad.copy() for p in model.all_parameters()]

    T = int(lengths.max())
    trimmed, padded = run(T), run(T + extra)
    # Zero-padded rows can move the summation order inside a product, so a
    # gradient entry that cancels to near zero may differ by ~1e-17 absolute.
    close = dict(rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(padded[0], trimmed[0], **close)
    np.testing.assert_allclose(padded[1], trimmed[1], **close)
    for b, n in enumerate(lengths):
        np.testing.assert_allclose(padded[2][b, :n], trimmed[2][b, :n], **close)
    for g_pad, g_trim in zip(padded[3], trimmed[3]):
        np.testing.assert_allclose(g_pad, g_trim, **close)


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
    gold = training.pad_batch(tags, max_len=7, pad_index=int(TagLabel.PAD))[0]

    h_seqs = [bilstm_forward(model.encoder, model.embeddings[row]) for row in ids]
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
        h = model.encode_batch(idx, n).h
        pred = model.predict_tag_batch(idx, n)
        for b, row in enumerate(ids):
            alone = model.encode_batch([row], [len(row)]).h[0]
            np.testing.assert_allclose(h[b, : len(row)], alone, rtol=0, atol=1e-13)
            alone_pred = model.predict_tag_batch([row], [len(row)])[0]
            assert np.array_equal(pred[b, : len(row)], alone_pred)

    def test_permuting_rows_permutes_states(self):
        model, _, idx, n = self.setup_batch()
        perm = np.random.default_rng(5).permutation(len(n))
        h = model.encode_batch(idx, n).h
        np.testing.assert_allclose(model.encode_batch(idx[perm], n[perm]).h, h[perm],
                                   rtol=0, atol=1e-13)

    def test_states_are_zero_at_padding(self):
        model, _, idx, n = self.setup_batch()
        h = model.encode_batch(idx, n).h
        padding = np.arange(idx.shape[1])[None, :] >= n[:, None]
        assert padding.sum() > 0 and not h[padding].any()


def test_evaluate_tagging_batches_by_length(monkeypatch):
    """More records than one chunk: one ``predict_tag_batch`` call per chunk,
    none to ``predict_tags``, and the per-tweet counts."""
    rng = np.random.default_rng(3)
    model = AdrModel(rng.normal(size=(12, 4)), hidden=3, drug_count=2, seed=3)
    model.tag_head.b.value[...] = [0.5, -0.5, 0.0, 0.0]
    records = []
    for r in range(2 * training.INFERENCE_BATCH + 5):
        length = int(rng.integers(1, 13))
        records.append(
            (list(rng.integers(1, 12, size=length)),
             list(rng.integers(0, int(TagLabel.PAD), size=length)), f"r{r}")
        )
    expected = _per_tweet_counts(model, records)
    assert expected.predicted > 0 and expected.gold > 0

    shapes = []
    batched = model.predict_tag_batch

    def recording(idx, n):
        shapes.append(idx.shape)
        return batched(idx, n)

    monkeypatch.setattr(model, "predict_tag_batch", recording)
    monkeypatch.setattr(model, "predict_tags", None)
    assert evaluate_tagging(model, records) == expected
    assert [b for b, _ in shapes] == [training.INFERENCE_BATCH] * 2 + [5]
    assert [t for _, t in shapes] == sorted(t for _, t in shapes)
