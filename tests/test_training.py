import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthetic
from adrtag import training
from adrtag.encoding import TagLabel
from adrtag.model import AdrModel
from adrtag.numerics import NumericalError, Parameter
from adrtag.training import (
    Adam,
    AdamConfig,
    CheckpointError,
    TrainConfig,
    adam_step,
    heldout_split,
    load_checkpoint,
    pad_batch,
    pretrain,
    pretrain_config,
    save_checkpoint,
    supervised_config,
    train_supervised,
)


class TestAdam:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            AdamConfig(beta1=1.0)

    def test_first_step_is_signed_learning_rate(self):
        cfg = AdamConfig(learning_rate=0.01)
        p = Parameter("w", np.array([1.0, -2.0, 0.5]))
        g = np.array([3.0, -0.25, 1e-4])
        p.grad[...] = g
        before = p.value.copy()
        adam_step(p, cfg, t=1)
        expected = before - cfg.learning_rate * g / (np.abs(g) + cfg.epsilon)
        np.testing.assert_allclose(p.value, expected, atol=1e-15)

    def test_zero_gradient_leaves_weights_fixed(self):
        cfg = AdamConfig()
        p = Parameter("w", np.array([1.0, 2.0]))
        before = p.value.copy()
        adam_step(p, cfg, t=1)
        assert np.array_equal(p.value, before)

    def test_zero_gradient_decays_moments(self):
        cfg = AdamConfig()
        p = Parameter("w", np.array([1.0]))
        p.grad[...] = 4.0
        adam_step(p, cfg, t=1)
        m1, v1 = p.adam_m.copy(), p.adam_v.copy()
        adam_step(p, cfg, t=2)  # grad was zeroed by the previous step
        np.testing.assert_allclose(p.adam_m, cfg.beta1 * m1)
        np.testing.assert_allclose(p.adam_v, cfg.beta2 * v1)

    def test_gradient_zeroed_after_step(self):
        p = Parameter("w", np.ones(2))
        p.grad[...] = 1.0
        adam_step(p, AdamConfig(), t=1)
        assert np.array_equal(p.grad, np.zeros(2))

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter("fwd.w_u", np.ones(2))
        p.grad[...] = np.array([1.0, np.nan])
        with pytest.raises(NumericalError, match="fwd.w_u"):
            adam_step(p, AdamConfig(), t=1)

    def test_descends_quadratic(self):
        # scalar simulation of 100 steps on f(w) = w^2 from w = 1
        cfg = AdamConfig(learning_rate=0.1)
        p = Parameter("w", np.array([1.0]))
        opt = Adam([p], cfg)
        traj = []
        for _ in range(100):
            p.grad[...] = 2.0 * p.value
            opt.step()
            traj.append(abs(float(p.value[0])))
        # the iterate can oscillate around the optimum, so only check that
        # it ends up much closer than it started
        assert traj[-1] < 0.05
        assert traj[-1] < traj[0]

    def test_five_steps_match_textbook_bit_for_bit(self):
        cfg = AdamConfig(learning_rate=0.01)
        rng = np.random.default_rng(4)
        p = Parameter("w", rng.normal(size=(3, 4)))
        w, m, v = p.value.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        for t in range(1, 6):
            g = rng.normal(size=(3, 4))
            p.grad[...] = g
            adam_step(p, cfg, t)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            m_hat = m / (1.0 - cfg.beta1**t)
            v_hat = v / (1.0 - cfg.beta2**t)
            w = w - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            assert np.array_equal(p.adam_m, m)
            assert np.array_equal(p.adam_v, v)
            assert np.array_equal(p.value, w)

    def test_bad_step_index(self):
        p = Parameter("w", np.ones(1))
        with pytest.raises(ValueError):
            adam_step(p, AdamConfig(), t=0)


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
        cfg = pretrain_config(epochs=1, batch_size=60, max_len=12, seed=0,
                              adam=AdamConfig(learning_rate=1e-4))
        log = pretrain(examples, model, cfg)
        assert log[0]["mean_loss"] == pytest.approx(math.log(4), rel=0.15)

    def test_loss_decreases(self):
        vocab, _, model = tiny_setup()
        examples = synthetic.unlabeled_examples(vocab, 3, 120, seed=2)
        cfg = pretrain_config(epochs=6, batch_size=16, max_len=12, seed=0,
                              adam=AdamConfig(learning_rate=0.01))
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
        snapshot = [p.value.copy() for p in model.all_parameters()]
        train_supervised(data, model, supervised_config(epochs=0, max_len=12))
        for p, s in zip(model.all_parameters(), snapshot):
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
            finals.append([p.value.copy() for p in model.all_parameters()])
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
            supervised_config(epochs=40, max_len=12, seed=2,
                              adam=AdamConfig(learning_rate=0.01)),
        )
        losses = [r["mean_loss"] for r in log]
        half = losses[len(losses) // 2 :]
        assert all(b <= a + 1e-3 for a, b in zip(half, half[1:]))


class TestNonFiniteLoss:
    """A NaN embedding row read by one tweet fails that tweet's batch right
    after the forward pass, naming the phase, epoch and tweet, before any
    backward pass or update can write the NaN into the weights."""

    @staticmethod
    def poison_one_tweet(model, examples, victim):
        used = {i for k, e in enumerate(examples) if k != victim for i in e[0]}
        row = min(set(range(1, len(model.embeddings))) - used)
        examples[victim][0][0] = row
        model.embeddings[row] = np.nan

    def test_pretrain_names_the_tweet(self):
        vocab, _, model = tiny_setup()
        examples = synthetic.unlabeled_examples(vocab, 3, 20, seed=1)
        victim = heldout_split([e[2] for e in examples])[0][-1]
        self.poison_one_tweet(model, examples, victim)
        name = re.escape(examples[victim][2])
        with pytest.raises(NumericalError, match=rf"pretrain epoch 0: .*\b{name}$"):
            pretrain(examples, model, pretrain_config(epochs=1, batch_size=1, max_len=12))
        assert all(np.isfinite(p.value).all() for p in model.all_parameters())

    def test_supervised_names_the_tweet(self):
        vocab, _, model = tiny_setup()
        data = synthetic.labeled_examples(vocab, 3, 12, seed=4)
        self.poison_one_tweet(model, data, 7)
        with pytest.raises(NumericalError, match=r"supervised epoch 0: .*\bl7$"):
            train_supervised(data, model, supervised_config(epochs=1, max_len=12))
        assert all(np.isfinite(p.value).all() for p in model.all_parameters())


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
        for a, b in zip(model.all_parameters(), loaded.all_parameters()):
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

    def test_hidden_size_mismatch(self, tmp_path):
        _, _, model = tiny_setup(hidden=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="hidden"):
            load_checkpoint(path, expected_hidden=5)

    @pytest.mark.parametrize("name", ["embeddings", "bwd.i", "tag.b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_array_is_named(self, tmp_path, name, bad):
        _, _, model = tiny_setup(hidden=2)
        target = {p.name: p.value for p in model.all_parameters()}
        target["embeddings"] = model.embeddings
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
    path.write_bytes(bytes(data))
    try:
        model = load_checkpoint(path)
    except CheckpointError:
        return
    assert np.isfinite(model.embeddings).all()
    assert all(np.isfinite(p.value).all() for p in model.all_parameters())


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
    H, E = 3, 4
    arrays = _v1_arrays(H, E, gate_biases)
    path = tmp_path / "v1.ckpt"
    _write_v1_checkpoint(path, arrays, H, E, gate_biases)

    model = load_checkpoint(path)
    by_name = dict(arrays)
    cells = {"fwd": model.encoder.forward_cell, "bwd": model.encoder.backward_cell}
    for prefix, cell in cells.items():
        for k, g in enumerate(("u", "f", "c", "o")):
            rows = slice(k * H, (k + 1) * H)
            assert np.array_equal(cell.w.value[rows], by_name[f"{prefix}.w_{g}"])
            assert np.array_equal(cell.i.value[rows], by_name[f"{prefix}.i_{g}"])
            if gate_biases:
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
