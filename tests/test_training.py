import copy
import gc
import json
import math
import re
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic
from adrtag import model as model_module
from adrtag import training
from adrtag.encoding import TagLabel
from adrtag.files import atomic_write
from adrtag.model import AdrModel
from adrtag.numerics import Gradients, NumericalError, Parameter
from adrtag.training import (
    Adam,
    CheckpointError,
    TrainConfig,
    heldout_split,
    load_checkpoint,
    pad_batch,
    pretrain,
    pretrain_config,
    save_checkpoint,
    supervised_config,
    train_supervised,
    write_log,
)


def _all_parameters(model):
    """Every parameter of ``model``: the encoder's, then each head's."""
    return model.drug_parameters() + model.tag_head.params()


def adam_update(optimizer, p, g):
    """One optimizer step that hands it the gradient ``g`` of ``p``, copied,
    as the step spends it."""
    optimizer.update(lambda sink: sink.step(p, np.array(g, dtype=np.float64)))


class TestAdam:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            TrainConfig(learning_rate=0.0)

    def test_first_step_is_signed_learning_rate(self):
        p = Parameter("w", np.array([1.0, -2.0, 0.5]))
        g = np.array([3.0, -0.25, 1e-4])
        before = p.value.copy()
        adam_update(Adam([p], 0.01), p, g)
        expected = before - 0.01 * g / (np.abs(g) + training.EPSILON)
        np.testing.assert_allclose(p.value, expected, atol=1e-15)

    def test_zero_gradient_leaves_weights_fixed(self):
        p = Parameter("w", np.array([1.0, 2.0]))
        before = p.value.copy()
        adam_update(Adam([p], 0.001), p, np.zeros(2))
        assert np.array_equal(p.value, before)

    def test_zero_gradient_decays_moments(self):
        p = Parameter("w", np.array([1.0]))
        opt = Adam([p], 0.001)
        adam_update(opt, p, [4.0])
        m1, v1 = opt.m[0].copy(), opt.v[0].copy()
        adam_update(opt, p, [0.0])
        np.testing.assert_allclose(opt.m[0], training.BETA1 * m1)
        np.testing.assert_allclose(opt.v[0], training.BETA2 * v1)

    def test_step_drops_the_gradient_and_a_failed_step_keeps_it(self):
        # a step spends the gradient as scratch and leaves none on the
        # parameter; a step the finite check stops leaves the gradient as it was
        p = Parameter("w", np.ones(3))
        opt = Adam([p], 0.001)
        adam_update(opt, p, [1.0, -2.0, 0.5])
        assert set(vars(p)) == {"name", "value"}
        bad = np.array([1.0, np.nan, 0.5])
        with pytest.raises(NumericalError):
            opt.update(lambda sink: sink.step(p, bad))
        assert np.array_equal(bad, [1.0, np.nan, 0.5], equal_nan=True)

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter("fwd.w_u", np.ones(2))
        with pytest.raises(NumericalError, match="fwd.w_u"):
            adam_update(Adam([p], 0.001), p, [1.0, np.nan])

    def test_descends_quadratic(self):
        # scalar simulation of 100 steps on f(w) = w^2 from w = 1
        p = Parameter("w", np.array([1.0]))
        opt = Adam([p], 0.1)
        traj = []
        for _ in range(100):
            adam_update(opt, p, 2.0 * p.value)
            traj.append(abs(float(p.value[0])))
        # the iterate can oscillate around the optimum, so only check that
        # it ends up much closer than it started
        assert traj[-1] < 0.05
        assert traj[-1] < traj[0]

    def test_five_steps_match_textbook_bit_for_bit(self):
        # Kingma & Ba's values, written out rather than read from the module
        rng = np.random.default_rng(4)
        p = Parameter("w", rng.normal(size=(3, 4)))
        w, m, v = p.value.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        opt = Adam([p], 0.01)
        for t in range(1, 6):
            g = rng.normal(size=(3, 4))
            adam_update(opt, p, g)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            w = w - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(opt.m[0], m)
            assert np.array_equal(opt.v[0], v)
            assert np.array_equal(p.value, w)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e155])
    def test_a_non_finite_or_overflowing_entry_changes_nothing(self, entry):
        # 1e155 is finite, but its square overflows the squared norm, as it
        # would overflow the bias-corrected v
        p = Parameter("tag.w", np.ones(5))
        opt = Adam([p], 0.001)
        adam_update(opt, p, np.linspace(-1.0, 1.0, 5))  # the moments are non-zero from here on
        w, m, v = p.value.copy(), opt.m[0].copy(), opt.v[0].copy()
        g = np.full(5, 0.5)
        g[2] = entry
        with pytest.raises(NumericalError, match=r"non-finite gradient for parameter tag\.w"):
            adam_update(opt, p, g)
        assert np.array_equal(p.value, w)
        assert np.array_equal(opt.m[0], m) and np.array_equal(opt.v[0], v)

    def test_an_entry_below_the_overflow_bound_updates(self):
        p = Parameter("w", np.zeros(2))
        adam_update(Adam([p], 0.01), p, [1e150, -1.0])
        np.testing.assert_allclose(p.value, [-0.01, 0.01])

    def test_non_finite_gradient_in_a_late_chunk_updates_nothing(self):
        # the whole gradient is checked before the first slice is updated
        p = Parameter("w", np.ones(2 * training.ADAM_CHUNK + 5))
        g = np.ones(p.value.size)
        g[-1] = np.inf
        opt = Adam([p], 0.001)
        with pytest.raises(NumericalError, match="non-finite gradient for parameter w"):
            adam_update(opt, p, g)
        assert np.array_equal(p.value, np.ones(p.value.size))
        assert not opt.m[0].any() and not opt.v[0].any()

    def test_every_chunk_is_updated(self):
        p = Parameter("w", np.ones((3, training.ADAM_CHUNK)))
        adam_update(Adam([p], 0.001), p, np.ones(p.value.shape))
        assert np.all(p.value < 1.0)

    def test_buffer_is_one_workspace_sized_to_the_largest_parameter(self):
        small, large = Parameter("b", np.ones(3)), Parameter("w", np.ones((4, 5)))
        opt = Adam([small, large], 0.001)
        assert opt.workspace is None  # allocated by the first update, with the moments
        views = []
        opt.update(lambda sink: views.extend((sink.buffer(small), sink.buffer(large))))
        a, b = views
        assert a.shape == (3,) and b.shape == (4, 5) and b.flags.c_contiguous
        assert opt.workspace.size == 20
        assert a.base is opt.workspace and b.base is opt.workspace
        opt.release()
        assert opt.workspace is None


class TestPadBatch:
    def test_pads_and_records_lengths(self):
        mat, lengths = pad_batch([[5, 6], [7]], max_len=3)
        assert mat.tolist() == [[5, 6], [7, 0]]  # width min(max_len, longest)
        assert lengths.tolist() == [2, 1]

    def test_exact_length_unchanged(self):
        mat, lengths = pad_batch([[1, 2, 3]], max_len=3)
        assert mat.tolist() == [[1, 2, 3]]
        assert lengths.tolist() == [3]

    def test_truncates_long_sequences(self):
        mat, lengths = pad_batch([[1, 2, 3, 4, 5]], max_len=3)
        assert mat.tolist() == [[1, 2, 3]]
        assert lengths.tolist() == [3]

    def test_empty_example_rejected(self):
        with pytest.raises(ValueError):
            pad_batch([[1], []], max_len=3)


class TestConfigs:
    def test_defaults(self):
        assert pretrain_config().batch_size == 128
        assert pretrain_config().epochs == 30
        assert supervised_config().batch_size == 1
        assert supervised_config().epochs == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)


def test_heldout_split_is_deterministic_and_order_free():
    ids = [f"tweet-{i}" for i in range(200)]
    t1, h1 = heldout_split(ids)
    t2, h2 = heldout_split(ids)
    assert (t1, h1) == (t2, h2)
    assert 0 < len(h1) < 60
    # membership keyed on the id, not the position
    rev_train, rev_held = heldout_split(list(reversed(ids)))
    held_ids = {ids[i] for i in h1}
    assert {list(reversed(ids))[i] for i in rev_held} == held_ids


def tiny_setup(n_cues=3, emb_dim=6, hidden=6, seed=0):
    vocab = synthetic.make_vocab(n_cues)
    emb = synthetic.make_embeddings(vocab, emb_dim)
    model = AdrModel(emb, hidden=hidden, drug_count=n_cues, seed=seed)
    return vocab, emb, model


class TestPretrain:
    def test_initial_loss_near_log_of_catalog_size(self):
        vocab, _, model = tiny_setup(n_cues=4)
        examples = synthetic.unlabeled_examples(vocab, 4, 60, seed=1)
        cfg = pretrain_config(epochs=1, batch_size=60, max_len=12, seed=0, learning_rate=1e-4)
        log = pretrain(examples, model, cfg)
        assert log[0]["mean_loss"] == pytest.approx(math.log(4), rel=0.15)

    def test_loss_decreases(self):
        vocab, _, model = tiny_setup()
        examples = synthetic.unlabeled_examples(vocab, 3, 120, seed=2)
        cfg = pretrain_config(epochs=6, batch_size=16, max_len=12, seed=0, learning_rate=0.01)
        log = pretrain(examples, model, cfg)
        assert log[-1]["mean_loss"] < log[0]["mean_loss"]
        assert log[-1]["accuracy"] is not None

    def test_empty_corpus_rejected(self):
        _, _, model = tiny_setup()
        with pytest.raises(ValueError):
            pretrain([], model, pretrain_config())

    def test_tag_head_untouched(self):
        vocab, _, model = tiny_setup()
        before = model.tag_head.w.value.copy()
        examples = synthetic.unlabeled_examples(vocab, 3, 40, seed=3)
        pretrain(examples, model, pretrain_config(epochs=1, batch_size=8, max_len=12, seed=0))
        assert np.array_equal(model.tag_head.w.value, before)


class TestTrainSupervised:
    def test_zero_epochs_leaves_parameters_unchanged(self):
        vocab, _, model = tiny_setup()
        data = synthetic.labeled_examples(vocab, 3, 5, seed=4)
        snapshot = [p.value.copy() for p in _all_parameters(model)]
        train_supervised(data, model, supervised_config(epochs=0, max_len=12))
        for p, s in zip(_all_parameters(model), snapshot):
            assert np.array_equal(p.value, s)

    def test_misalignment_names_record(self):
        _, _, model = tiny_setup()
        data = [([1, 2, 3], [2, 2], "bad-record")]
        with pytest.raises(ValueError, match="bad-record"):
            train_supervised(data, model, supervised_config(epochs=1, max_len=12))

    def test_deterministic_given_seed(self):
        vocab, emb, _ = tiny_setup()
        data = synthetic.labeled_examples(vocab, 3, 10, seed=5)
        finals = []
        for _ in range(2):
            model = AdrModel(emb, hidden=6, drug_count=3, seed=1)
            train_supervised(data, model, supervised_config(epochs=3, max_len=12, seed=9))
            finals.append([p.value.copy() for p in _all_parameters(model)])
        for a, b in zip(*finals):
            assert np.array_equal(a, b)

    def test_drug_head_untouched(self):
        vocab, _, model = tiny_setup()
        before = model.drug_head.w.value.copy()
        data = synthetic.labeled_examples(vocab, 3, 6, seed=6)
        train_supervised(data, model, supervised_config(epochs=2, max_len=12))
        assert np.array_equal(model.drug_head.w.value, before)

    def test_encoder_shared_across_phases(self):
        # fine-tuning moves the same arrays pretraining trained
        vocab, _, model = tiny_setup()
        examples = synthetic.unlabeled_examples(vocab, 3, 30, seed=7)
        pretrain(examples, model, pretrain_config(epochs=1, batch_size=8, max_len=12, seed=0))
        idx = np.array([[1, 2, 3]])
        lengths = np.array([3])
        probs_before = model.predict_drug_batch(idx, lengths).copy()
        data = synthetic.labeled_examples(vocab, 3, 10, seed=8)
        train_supervised(data, model, supervised_config(epochs=2, max_len=12))
        probs_after = model.predict_drug_batch(idx, lengths)
        assert not np.array_equal(probs_before, probs_after)

    def test_moments_start_fresh_after_pretraining(self, tmp_path):
        # phase 2 in the same process must match phase 2 from a saved checkpoint,
        # which carries no Adam moments
        vocab, _, model = tiny_setup()
        examples = synthetic.unlabeled_examples(vocab, 3, 30, seed=7)
        pretrain(examples, model, pretrain_config(epochs=2, batch_size=8, max_len=12, seed=0))
        save_checkpoint(model, tmp_path / "pre.ckpt")
        reloaded = load_checkpoint(tmp_path / "pre.ckpt")
        data = synthetic.labeled_examples(vocab, 3, 10, seed=8)
        for m in (model, reloaded):
            train_supervised(data, m, supervised_config(epochs=2, max_len=12))
        for p, q in zip(model.tag_parameters(), reloaded.tag_parameters()):
            assert np.array_equal(p.value, q.value), p.name

    def test_loss_monotone_over_second_half_when_memorizing(self):
        vocab, _, model = tiny_setup(emb_dim=8, hidden=8)
        data = synthetic.labeled_examples(vocab, 3, 8, seed=10)
        log = train_supervised(
            data, model,
            supervised_config(epochs=40, max_len=12, seed=2, learning_rate=0.01),
        )
        losses = [r["mean_loss"] for r in log]
        half = losses[len(losses) // 2 :]
        assert all(b <= a + 1e-3 for a, b in zip(half, half[1:]))


def _weights_only(params):
    return all(set(vars(p)) == {"name", "value"} for p in params)


class TestTrainingBuffers:
    """Adam's moments and gradient workspace exist only while training uses
    them, and no parameter ever holds a gradient."""

    def test_one_adam_step_gives_the_group_its_buffers(self):
        vocab, _, model = tiny_setup()
        (ids, tags, _), = synthetic.labeled_examples(vocab, 3, 1, seed=3)
        optimizer = Adam(model.tag_parameters(), 0.001)
        assert optimizer.m == [] and optimizer.workspace is None
        optimizer.update(partial(model.backward_tags, model.tag_loss([ids], [len(ids)], [tags])[1]))
        assert len(optimizer.m) == len(optimizer.v) == len(model.tag_parameters())
        for p, v in zip(model.tag_parameters(), optimizer.v):
            assert v.shape == p.value.shape and v.any(), p.name
        assert optimizer.workspace.size == max(p.value.size for p in model.tag_parameters())
        assert _weights_only(_all_parameters(model))

    def test_two_optimizers_over_one_group_have_independent_zero_moments(self):
        p = Parameter("w", np.ones(3))
        g = np.array([1.0, -2.0, 0.5])
        first = Adam([p], 0.001)
        adam_update(first, p, g)
        m, v = first.m[0].copy(), first.v[0].copy()
        second = Adam([p], 0.001)
        assert second.m == [] and second.v == []
        adam_update(second, p, g)  # from zero moments, as the first optimizer's first step was
        assert np.array_equal(second.m[0], m) and np.array_equal(second.v[0], v)
        assert np.array_equal(first.m[0], m) and np.array_equal(first.v[0], v)

    @staticmethod
    def record_optimizers(monkeypatch):
        """The list every Adam built from here on is appended to."""
        made, init = [], Adam.__init__

        def recording_init(optimizer, *args, **kwargs):
            init(optimizer, *args, **kwargs)
            made.append(optimizer)

        monkeypatch.setattr(Adam, "__init__", recording_init)
        return made

    @staticmethod
    def train_phase(phase, model, vocab):
        if phase == "pretrain":
            examples = synthetic.unlabeled_examples(vocab, 3, 20, seed=1)
            return pretrain(examples, model, pretrain_config(epochs=2, batch_size=4, max_len=12))
        data = synthetic.labeled_examples(vocab, 3, 4, seed=4)
        return train_supervised(data, model, supervised_config(epochs=2, max_len=12))

    @pytest.mark.parametrize("phase", ["pretrain", "supervised"])
    def test_training_returns_a_model_holding_only_weights(self, phase, monkeypatch):
        vocab, _, model = tiny_setup()
        optimizers = self.record_optimizers(monkeypatch)
        before = [p.value.copy() for p in _all_parameters(model)]
        self.train_phase(phase, model, vocab)
        assert any(not np.array_equal(p.value, w) for p, w in zip(_all_parameters(model), before))
        assert _weights_only(_all_parameters(model))
        (optimizer,) = optimizers
        assert optimizer.t >= 2 and optimizer.m == [] and optimizer.v == []
        assert optimizer.workspace is None

    @pytest.mark.parametrize("phase", ["pretrain", "supervised"])
    def test_a_failed_step_still_releases_every_buffer(self, phase, monkeypatch):
        # the third backward writes a NaN into one gradient, after two steps
        # have given the group its moments; Adam then stops with NumericalError
        vocab, _, model = tiny_setup()
        optimizers = self.record_optimizers(monkeypatch)
        name = "backward_drug" if phase == "pretrain" else "backward_tags"
        backward, calls = getattr(model, name), []

        def poisoned(cache, sink):
            calls.append(1)
            if len(calls) == 3:
                def step(p, g, step=sink.step):
                    if p.name == "fwd.w":
                        g[0, 0] = np.nan
                    step(p, g)
                sink = SimpleNamespace(buffer=sink.buffer, step=step)
            backward(cache, sink)

        setattr(model, name, poisoned)
        with pytest.raises(NumericalError, match=rf"^{phase} epoch 0: non-finite gradient for "
                                                 r"parameter fwd\.w on the batch of tweets "):
            self.train_phase(phase, model, vocab)
        assert _weights_only(_all_parameters(model))
        (optimizer,) = optimizers
        assert optimizer.t == 3 and optimizer.m == [] and optimizer.v == []
        assert optimizer.workspace is None

    @pytest.mark.parametrize("phase", ["pretrain", "supervised"])
    def test_each_step_writes_its_gradients_into_the_memory_the_last_step_spent(
            self, phase, monkeypatch):
        # every gradient of every step is written into the one workspace
        vocab, _, model = tiny_setup()
        params = (model.drug_parameters() if phase == "pretrain"
                  else model.tag_parameters())
        handed, step = [], Adam.step

        def recording_step(optimizer, p, g):
            handed.append((p.name, g.__array_interface__["data"][0], g.base is optimizer.workspace))
            step(optimizer, p, g)

        monkeypatch.setattr(Adam, "step", recording_step)
        self.train_phase(phase, model, vocab)
        heads_first = [p.name for p in params[-2:] + params[:-2]]
        steps = len(handed) // len(params)
        assert steps >= 4 and [name for name, _, _ in handed] == heads_first * steps
        assert len({address for _, address, _ in handed}) == 1
        assert all(in_workspace for _, _, in_workspace in handed)

    def test_a_trained_model_adds_only_its_weights_to_the_next_training_peak(self):
        vocab, _, model_a = tiny_setup(emb_dim=8, hidden=64)
        data = synthetic.labeled_examples(vocab, 3, 4, seed=4)
        cfg = supervised_config(epochs=1, max_len=12)
        weights = sum(p.value.nbytes for p in model_a.tag_parameters())

        def train_b():
            train_supervised(data, tiny_setup(emb_dim=8, hidden=64, seed=1)[2], cfg)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        train_b()  # warm up numpy's and the test's one-time allocations
        alone = peak(train_b)
        # A is trained inside the traced region and kept alive while B trains;
        # a gradient and two moments left on A would add 3x its weights.
        both = peak(lambda: (train_supervised(data, model_a, cfg), train_b()))
        assert both < weights + alone + weights // 2

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        _, _, model = tiny_setup(seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def no_draws(*args):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(model_module, "glorot", no_draws)
        loaded = load_checkpoint(path)
        for a, b in zip(_all_parameters(model), _all_parameters(loaded)):
            assert np.array_equal(a.value, b.value), a.name
        assert _weights_only(_all_parameters(loaded))

    def test_load_and_predict_peak_is_weights_and_activations(self, tmp_path):
        vocab, _, model = tiny_setup(emb_dim=8, hidden=64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        array_bytes = sum(a.nbytes for _, a in training._model_arrays(model))
        idx, lengths = pad_batch([e[0] for e in synthetic.labeled_examples(vocab, 3, 8, seed=2)],
                                 max_len=12)
        warm = load_checkpoint(path)
        warm.predict_tag_batch(idx, lengths)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        activations = peak(lambda: warm.predict_tag_batch(idx, lengths))
        total = peak(lambda: load_checkpoint(path).predict_tag_batch(idx, lengths))
        assert total < 1.5 * array_bytes + activations

    def test_load_maps_the_table_instead_of_copying_it(self, tmp_path):
        """The frozen table dominates this checkpoint; loading allocates no
        copy of it, hands it over read-only, and saves it back unchanged."""
        table = np.random.default_rng(0).normal(size=(50_000, 32))
        path = tmp_path / "model.ckpt"
        save_checkpoint(AdrModel(table, hidden=4, drug_count=2, seed=0), path)
        load_checkpoint(path)  # warm up the loader's one-time allocations
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes
        assert np.array_equal(loaded.embeddings, table)
        assert not loaded.embeddings.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            loaded.embeddings[1, 0] = 0.0
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_loaded_model_outlives_the_file_it_was_mapped_from(self, tmp_path):
        """Replacing the checkpoint, as save_checkpoint does, leaves a model
        already loaded from it tagging as before."""
        vocab, emb, model = tiny_setup(seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        tweets = [e[0] for e in synthetic.labeled_examples(vocab, 3, 6, seed=3)]
        before = [loaded.predict_tags(ids) for ids in tweets]
        save_checkpoint(AdrModel(emb + 1.0, hidden=6, drug_count=3, seed=5), path)
        assert [loaded.predict_tags(ids) for ids in tweets] == before
        assert np.array_equal(loaded.embeddings, emb)
        assert np.array_equal(load_checkpoint(path).embeddings, emb + 1.0)

    def test_deep_copies_train_like_the_original(self):
        vocab, _, model = tiny_setup()
        data = synthetic.labeled_examples(vocab, 3, 2, seed=6)
        cfg = supervised_config(epochs=1, max_len=12)  # two B=1 steps

        def train_both(copied):
            train_supervised(data, model, cfg)
            train_supervised(data, copied, cfg)
            for p, q in zip(_all_parameters(model), _all_parameters(copied)):
                assert np.array_equal(p.value, q.value), p.name

        train_both(copy.deepcopy(model))  # copied before any training
        copied = copy.deepcopy(model)  # training left only the weights to copy
        assert _weights_only(_all_parameters(copied))
        train_both(copied)

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_deep_copies_share_the_read_only_table(self, tmp_path, source):
        """A deep copy owns every weight but shares the frozen table, which
        neither the model nor its copy lets anyone write into. A built model
        reads a view of the caller's array, which stays the caller's."""
        _, emb, model = tiny_setup()
        if source == "loaded":
            save_checkpoint(model, tmp_path / "model.ckpt")
            model = load_checkpoint(tmp_path / "model.ckpt")
        copied = copy.deepcopy(model)
        assert np.shares_memory(copied.embeddings, model.embeddings)
        for p, q in zip(_all_parameters(model), _all_parameters(copied)):
            assert not np.shares_memory(p.value, q.value), p.name
        for m in (model, copied):
            with pytest.raises(ValueError, match="read-only"):
                m.embeddings[1, 0] = 0.0
        assert np.array_equal(copied.embeddings, emb)
        assert emb.flags.writeable

    def test_a_copy_of_a_loaded_model_outlives_the_original(self, tmp_path):
        """The shared mapping lives as long as the last model that reads it,
        so a copy tags as before once the model it was copied from and the
        file it was mapped from are both gone."""
        vocab, emb, model = tiny_setup(seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        tweets = [e[0] for e in synthetic.labeled_examples(vocab, 3, 6, seed=3)]
        before = [loaded.predict_tags(ids) for ids in tweets]
        copied = copy.deepcopy(loaded)
        assert np.shares_memory(copied.embeddings, loaded.embeddings)
        del loaded
        gc.collect()
        save_checkpoint(AdrModel(emb + 1.0, hidden=6, drug_count=3, seed=5), path)
        assert [copied.predict_tags(ids) for ids in tweets] == before
        assert np.array_equal(copied.embeddings, emb)

    def test_a_b1_step_holds_the_moments_and_one_gradient_workspace(self):
        """A B=1 supervised step, the paper's fine-tuning setting, peaks above
        the weights at Adam's two moments, one workspace the size of the
        largest parameter and a stated slack: Adam's update scratch, one
        chunk of at most the largest parameter, and 128 KiB for the step's
        activations (about 70 KiB here).
        Holding every gradient of the group at once would need more."""
        vocab, _, model = tiny_setup(emb_dim=64, hidden=64)
        data = synthetic.labeled_examples(vocab, 3, 1, seed=4)
        cfg = supervised_config(epochs=1, max_len=12)
        sizes = [p.value.nbytes for p in model.tag_parameters()]
        slack = max(sizes) + 128 * 1024
        train_supervised(data, tiny_setup(emb_dim=64, hidden=64, seed=1)[2], cfg)  # warm-up
        tracemalloc.start()
        try:
            train_supervised(data, model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * sum(sizes) + max(sizes) + slack
        # the bound leaves less room than a gradient for every parameter
        assert sum(sizes) > max(sizes) + slack


@pytest.mark.parametrize("phase", ["pretrain", "supervised"])
def test_a_training_step_is_every_gradient_then_textbook_adam(phase):
    """One training step over one tweet gives the weights that collecting the
    group's every gradient first, then one textbook Adam step, gives."""
    vocab, _, model = tiny_setup()
    expected = copy.deepcopy(model)
    lr = 0.01
    if phase == "pretrain":
        examples = synthetic.unlabeled_examples(vocab, 3, 1, seed=2)
        pretrain(examples, model, pretrain_config(epochs=1, max_len=12, learning_rate=lr))
        (ids, label, _), = examples
        _, cache = expected.drug_loss([ids], [len(ids)], [label])
        params, backward = expected.drug_parameters(), expected.backward_drug
    else:
        data = synthetic.labeled_examples(vocab, 3, 1, seed=2)
        train_supervised(data, model, supervised_config(epochs=1, max_len=12, learning_rate=lr))
        (ids, tags, _), = data
        _, cache = expected.tag_loss([ids], [len(ids)], [tags])
        params, backward = expected.tag_parameters(), expected.backward_tags
    grads = Gradients()
    backward(cache, grads)
    assert sorted(grads) == sorted(p.name for p in params)
    for p in params:  # t = 1, from zero moments
        g = grads[p.name]
        m_hat = ((1.0 - training.BETA1) * g) / (1.0 - training.BETA1)
        v_hat = ((1.0 - training.BETA2) * g * g) / (1.0 - training.BETA2)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + training.EPSILON)
    for p, q in zip(_all_parameters(model), _all_parameters(expected)):
        assert np.array_equal(p.value, q.value), p.name


def test_token_accuracy_is_exact():
    """The tag head's bias makes every position predict O throughout, so
    each epoch's training token accuracy is the share of O tags, exactly."""
    vocab, _, model = tiny_setup()
    model.tag_head.b.value[int(TagLabel.O)] = 50.0
    data = synthetic.labeled_examples(vocab, 3, 6, seed=4)
    tags = [t for _, row, _ in data for t in row]
    share = tags.count(int(TagLabel.O)) / len(tags)
    log = train_supervised(data, model, supervised_config(epochs=2, max_len=12))
    assert [r["accuracy"] for r in log] == [share, share]
    assert 0 < share < 1


class TestNonFiniteLoss:
    """A NaN embedding row read by one tweet fails that tweet's batch right
    after the forward pass, naming the phase, epoch and tweet, before any
    backward pass or update can write the NaN into the weights."""

    @staticmethod
    def poison_one_tweet(model, examples, victim, value=np.nan):
        """Give ``victim`` a first token whose row no other tweet reads, and
        swap in a copy of the read-only table that holds ``value`` there."""
        used = {i for k, e in enumerate(examples) if k != victim for i in e[0]}
        row = min(set(range(1, len(model.embeddings))) - used)
        examples[victim][0][0] = row
        table = model.embeddings.copy()
        table[row] = value
        model.embeddings = table

    def test_pretrain_names_the_tweet(self):
        vocab, _, model = tiny_setup()
        examples = synthetic.unlabeled_examples(vocab, 3, 20, seed=1)
        victim = heldout_split([e[2] for e in examples])[0][-1]
        self.poison_one_tweet(model, examples, victim)
        name = re.escape(examples[victim][2])
        with pytest.raises(NumericalError, match=rf"pretrain epoch 0: .*\b{name}$"):
            pretrain(examples, model, pretrain_config(epochs=1, batch_size=1, max_len=12))
        assert all(np.isfinite(p.value).all() for p in _all_parameters(model))

    def test_supervised_names_the_tweet(self):
        vocab, _, model = tiny_setup()
        data = synthetic.labeled_examples(vocab, 3, 12, seed=4)
        self.poison_one_tweet(model, data, 7)
        with pytest.raises(NumericalError, match=r"supervised epoch 0: .*\bl7$"):
            train_supervised(data, model, supervised_config(epochs=1, max_len=12))
        assert all(np.isfinite(p.value).all() for p in _all_parameters(model))

    def test_overflow_names_the_tweet(self):
        # a huge but finite row overflows the input projection to inf
        vocab, _, model = tiny_setup()
        data = synthetic.labeled_examples(vocab, 3, 12, seed=4)
        self.poison_one_tweet(model, data, 7, 1.7e308)
        model.cells[0].i.value[...] = 1.0
        with pytest.raises(NumericalError,
                           match=r"supervised epoch 0: encoder forward overflowed: .*\bl7$"):
            train_supervised(data, model, supervised_config(epochs=1, max_len=12))
        assert all(np.isfinite(p.value).all() for p in _all_parameters(model))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        vocab, _, model = tiny_setup(seed=11)
        model.vocab_tokens = vocab.index_to_token
        model.drug_names = ["a", "b", "c"]
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.seed == model.seed
        assert loaded.vocab_tokens == model.vocab_tokens
        assert np.array_equal(loaded.embeddings, model.embeddings)
        for a, b in zip(_all_parameters(model), _all_parameters(loaded)):
            assert a.name == b.name
            assert np.array_equal(a.value, b.value)

    def test_identical_models_identical_bytes(self, tmp_path):
        _, _, m1 = tiny_setup(seed=3)
        _, _, m2 = tiny_setup(seed=3)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m1, p1)
        save_checkpoint(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        _, _, model = tiny_setup()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["embeddings", "bwd.i", "tag.b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_array_is_named(self, tmp_path, name, bad):
        _, _, model = tiny_setup(hidden=2)
        target = {p.name: p.value for p in _all_parameters(model)}
        target["embeddings"] = model.embeddings = model.embeddings.copy()  # a writable table
        target[name].flat[-1] = bad
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match=f"non-finite value in {name}"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_setup(hidden=2)[2], path)
        before = path.read_bytes()
        real = training._model_arrays
        # a string array fails to convert after the header and the real arrays are written
        monkeypatch.setattr(training, "_model_arrays",
                            lambda m: real(m) + [("late", np.array(["not a float"]))])
        with pytest.raises(ValueError):
            save_checkpoint(tiny_setup(hidden=3)[2], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_failed_log_write_keeps_previous_file(tmp_path):
    path = tmp_path / "train.log"
    with atomic_write(path) as fh:
        write_log(fh, [{"epoch": 0}])
    before = path.read_bytes()
    with pytest.raises(TypeError):  # the second record is not JSON
        with atomic_write(path) as fh:
            write_log(fh, [{"epoch": 1}, {"epoch": object()}])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["train.log"]


def test_log_in_a_missing_directory_names_the_log(tmp_path):
    path = tmp_path / "missing" / "train.log"
    with pytest.raises(FileNotFoundError, match=re.escape(f"'{path}'")):
        with atomic_write(path) as fh:
            write_log(fh, [{"epoch": 0}])


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    vocab, _, model = tiny_setup(emb_dim=3, hidden=2)
    model.vocab_tokens = vocab.index_to_token
    path = tmp_path_factory.mktemp("corrupt") / "model.ckpt"
    save_checkpoint(model, path)
    return path.read_bytes(), path


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=4),
    st.one_of(st.none(), st.integers(min_value=0)),
)
def test_corrupted_checkpoint_is_rejected_or_finite(tiny_checkpoint, overwrites, keep):
    blob, path = tiny_checkpoint
    data = bytearray(blob)
    for pos, value in overwrites:
        data[pos % len(data)] = value
    if keep is not None:
        data = data[: keep % (len(data) + 1)]
    path.write_bytes(bytes(data))  # in place: the last example's model is gone
    try:
        model = load_checkpoint(path)
    except CheckpointError:
        return
    assert np.isfinite(model.embeddings).all()
    assert all(np.isfinite(p.value).all() for p in _all_parameters(model))


def _write_v1_checkpoint(path, arrays, hidden, emb, gate_biases):
    """A version-1 writer that shares no code with adrtag.training."""
    header = {
        "version": 1,
        "seed": 5,
        "hidden": hidden,
        "emb": emb,
        "drug_count": 3,
        "pooling": "mean",
        "gate_biases": gate_biases,
        "vocab_tokens": ["<PAD>", "<UNK>", "<LINK>", "<USER>", "<DRUG>", "ache"],
        "drug_names": ["a", "b", "c"],
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"ADRCKPT1")
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _v1_arrays(H, E, gate_biases):
    """Random arrays for a 6-token, 3-drug model, in the version-1 file order."""
    rng = np.random.default_rng(8)
    arrays = [("embeddings", rng.normal(size=(6, E)))]
    for prefix in ("fwd", "bwd"):
        for g in ("u", "f", "c", "o"):
            arrays.append((f"{prefix}.w_{g}", rng.normal(size=(H, H))))
            arrays.append((f"{prefix}.i_{g}", rng.normal(size=(H, E))))
            if gate_biases:
                arrays.append((f"{prefix}.b_{g}", rng.normal(size=H)))
    for name, shape in (("drug.w", (3, 2 * H)), ("drug.b", (3,)),
                        ("tag.w", (4, 2 * H)), ("tag.b", (4,))):
        arrays.append((name, rng.normal(size=shape)))
    return arrays


@pytest.mark.parametrize("gate_biases", [True, False])
def test_per_gate_v1_checkpoint_fills_fused_blocks(tmp_path, gate_biases):
    """A version-1 file fills the fused blocks and saves back byte for byte.
    A file whose header says gate_biases false, with no b_* arrays, as a
    model without gate biases was once written, is refused naming the field."""
    H, E = 3, 4
    arrays = _v1_arrays(H, E, gate_biases)
    path = tmp_path / "v1.ckpt"
    _write_v1_checkpoint(path, arrays, H, E, gate_biases)
    if not gate_biases:
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: header field 'gate_biases' is missing or malformed")):
            load_checkpoint(path)
        return

    model = load_checkpoint(path)
    by_name = dict(arrays)
    for prefix, cell in zip(("fwd", "bwd"), model.cells):
        for k, g in enumerate(("u", "f", "c", "o")):
            rows = slice(k * H, (k + 1) * H)
            assert np.array_equal(cell.w.value[rows], by_name[f"{prefix}.w_{g}"])
            assert np.array_equal(cell.i.value[rows], by_name[f"{prefix}.i_{g}"])
            assert np.array_equal(cell.b.value[rows], by_name[f"{prefix}.b_{g}"])
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(model, resaved)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("hidden, emb", [(1000, 4), (3, 1000)], ids=["hidden", "emb"])
def test_header_sizes_must_match_arrays_before_model_is_built(tmp_path, monkeypatch,
                                                              hidden, emb):
    """A header whose sizes disagree with its (size-checked) array list is
    rejected before the constructor can allocate from those sizes."""
    path = tmp_path / "v1.ckpt"
    _write_v1_checkpoint(path, _v1_arrays(3, 4, True), hidden, emb, True)
    built = []
    monkeypatch.setattr(training, "AdrModel", lambda *a, **kw: built.append(a))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: header implies fwd.")):
        load_checkpoint(path)
    assert built == []


@pytest.mark.parametrize("edit, named", [
    (lambda a: a + [("extra.w", np.ones(2))], "extra.w"),
    (lambda a: a[:-1], "tag.b"),
    (lambda a: [a[0], a[2], a[1]] + a[3:], "fwd.i_u"),
], ids=["extra", "missing", "reordered"])
def test_array_list_must_match_model(tmp_path, edit, named):
    path = tmp_path / "v1.ckpt"
    _write_v1_checkpoint(path, edit(_v1_arrays(3, 4, True)), 3, 4, True)
    with pytest.raises(CheckpointError, match=re.escape(f"array ('{named}', (")):
        load_checkpoint(path)
