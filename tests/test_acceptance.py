"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

import synthetic
from reference import encode
from adrtag.encoding import ADR, Span, TagLabel, decode_spans
from adrtag.evaluation import (
    approximate_match,
    evaluate_tagging,
    prf,
)
from adrtag.model import AdrModel, gradient_check
from adrtag.numerics import Parameter
from adrtag.text import DrugLexicon, TokenizedTweet, mask_drug
from adrtag.training import (
    Adam,
    load_checkpoint,
    pretrain,
    pretrain_config,
    save_checkpoint,
    supervised_config,
    train_supervised,
)
from test_encoding import random_span_set
from test_evaluation import exhaustive_max_matching


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        for res in gradient_check(seed):
            worst = max(worst, res.max_rel_err)
            assert res.ok, res
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (gradient fidelity)",
        worst < 1e-4 and elapsed < 30,
        f"max rel err {worst:.2e} over 10 seeds x 2 heads in {elapsed:.1f}s",
    )


def test_criterion_2_memorization():
    t0 = time.perf_counter()
    vocab = synthetic.make_vocab(5)
    emb = synthetic.make_embeddings(vocab, 10)
    data = synthetic.labeled_examples(vocab, 5, 20, seed=7, prefix="m")
    model = AdrModel(emb, hidden=10, drug_count=2, seed=1)
    log = train_supervised(
        data, model,
        supervised_config(epochs=200, max_len=12, seed=3, learning_rate=0.01),
    )
    best = max(r["accuracy"] for r in log)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2 (memorization)",
        best >= 0.99 and elapsed < 60,
        f"best non-PAD token accuracy {best:.3f} in {elapsed:.1f}s",
    )


def test_criterion_3_pretraining_transfer(tmp_path):
    t0 = time.perf_counter()
    n_cues = 20
    vocab = synthetic.make_vocab(n_cues)
    emb = synthetic.make_embeddings(vocab, 10)
    unlabeled = synthetic.unlabeled_examples(vocab, n_cues, 800, seed=11)
    # labeled training covers only 5 of the 20 cues; the test set uses all of
    # them, so the unlabeled corpus carries information the labeled set lacks
    train_set = synthetic.labeled_examples(vocab, n_cues, 20, seed=21, prefix="t",
                                           cue_pool=list(range(5)))
    test_set = synthetic.labeled_examples(vocab, n_cues, 100, seed=22, prefix="s")

    pretrained = AdrModel(emb, hidden=12, drug_count=n_cues, seed=5)
    plog = pretrain(
        unlabeled, pretrained,
        pretrain_config(epochs=10, batch_size=32, max_len=12, seed=5, learning_rate=0.01),
    )
    heldout_acc = plog[-1]["accuracy"]
    ckpt = tmp_path / "pretrained.ckpt"
    save_checkpoint(pretrained, ckpt)

    def trial_f1(init, seed):
        if init == "pretrained":
            model = load_checkpoint(ckpt)
        else:
            model = AdrModel(emb, hidden=12, drug_count=n_cues, seed=seed + 100)
        train_supervised(
            train_set, model,
            supervised_config(epochs=15, max_len=12, seed=seed, learning_rate=0.01),
        )
        return prf(evaluate_tagging(model, test_set))[2]

    f1_pre = [trial_f1("pretrained", s) for s in range(10)]
    f1_rnd = [trial_f1("random", s) for s in range(10)]
    mean_pre, mean_rnd = float(np.mean(f1_pre)), float(np.mean(f1_rnd))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (pretraining transfer)",
        heldout_acc > 0.9 and mean_pre >= mean_rnd - 0.01 and elapsed < 300,
        f"held-out drug acc {heldout_acc:.3f}; "
        f"F1 pretrained {mean_pre:.3f} vs random {mean_rnd:.3f} in {elapsed:.0f}s",
    )


def test_criterion_4_evaluation_oracle():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        preds = random_span_set(rng, 14)
        golds = random_span_set(rng, 14)
        got = approximate_match(preds, golds)
        want = exhaustive_max_matching(preds, golds)
        assert got == want, (preds, golds, got, want)
    from adrtag.evaluation import MatchCounts

    p, r, f1 = prf(MatchCounts(3, 4, 5))
    ok = (
        abs(p - 0.75) < 1e-9
        and abs(r - 0.6) < 1e-9
        and abs(f1 - 2 * 0.45 / 1.35) < 1e-9
    )
    report(
        "criterion 4 (evaluation oracle)",
        ok,
        "1000 random configs match exhaustive matching; 3/4/5 -> "
        f"P={p} R={r} F1={f1:.4f}",
    )


def test_criterion_5_drug_mask_invariance():
    lexicon = DrugLexicon(["effexor", "cymbalta"])
    t1 = TokenizedTweet("this effexor makes me dizzy".split(), "a")
    t2 = TokenizedTweet("this cymbalta makes me dizzy".split(), "b")
    e1 = mask_drug(t1, lexicon)
    e2 = mask_drug(t2, lexicon)
    assert e1.tokens == e2.tokens

    vocab = synthetic.make_vocab(2)
    emb = synthetic.make_embeddings(vocab, 8)
    model = AdrModel(emb, hidden=6, drug_count=2, seed=4)
    ids1 = np.array([vocab.indices(e1.tokens)])
    ids2 = np.array([vocab.indices(e2.tokens)])
    lengths = np.array([len(e1.tokens)])
    p1 = model.predict_drug_batch(ids1, lengths)
    p2 = model.predict_drug_batch(ids2, lengths)
    tags1 = model.predict_tags(ids1[0])
    tags2 = model.predict_tags(ids2[0])
    ok = np.array_equal(p1, p2) and tags1 == tags2
    report(
        "criterion 5 (drug-mask invariance)",
        ok,
        "masked inputs and model outputs are bit-identical across drug choice",
    )


def test_criterion_6_determinism(tmp_path):
    vocab = synthetic.make_vocab(4)
    emb = synthetic.make_embeddings(vocab, 8)
    unlabeled = synthetic.unlabeled_examples(vocab, 4, 60, seed=31)
    labeled = synthetic.labeled_examples(vocab, 4, 10, seed=32)
    test_set = synthetic.labeled_examples(vocab, 4, 10, seed=33)

    artifacts = []
    for run in range(2):
        model = AdrModel(emb, hidden=6, drug_count=4, seed=12)
        pretrain(unlabeled, model,
                 pretrain_config(epochs=2, batch_size=16, max_len=12, seed=12))
        train_supervised(labeled, model,
                         supervised_config(epochs=2, max_len=12, seed=12))
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(model, path)
        counts = evaluate_tagging(model, test_set)
        artifacts.append((path.read_bytes(), prf(counts)))
    ok = artifacts[0] == artifacts[1]
    report(
        "criterion 6 (determinism)",
        ok,
        "repeated end-to-end runs give byte-identical checkpoints and reports",
    )


def test_criterion_7_io_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        spans = random_span_set(rng, n)
        assert decode_spans(encode(["x"] * n, spans)) == sorted(spans)
    tokens = "because weight gain is not cool".split()
    tags = encode(tokens, [Span(1, 3, ADR)])
    ok = tags == [TagLabel.O, TagLabel.I_ADR, TagLabel.I_ADR,
                  TagLabel.O, TagLabel.O, TagLabel.O]
    report(
        "criterion 7 (IO round trip)",
        ok,
        "1000 random span sets round-trip; weight/gain example tags correctly",
    )


def test_criterion_8_adam_first_step():
    lr = 0.001
    rng = np.random.default_rng(13)
    g = rng.normal(size=(6, 5)) * 10
    p = Parameter("w", rng.normal(size=(6, 5)))
    before = p.value.copy()
    Adam([p], lr).update(lambda sink: sink.step(p, g.copy()))
    delta = p.value - before
    expected = -lr * g / (np.abs(g) + 1e-8)
    err = float(np.max(np.abs(delta - expected)))
    report(
        "criterion 8 (adam first step)",
        err < 1e-12,
        f"max entrywise deviation {err:.2e}",
    )
