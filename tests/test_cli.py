import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import click
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adrtag
from adrtag import cli as cli_module
from adrtag import evaluation as evaluation_module
from adrtag import text as text_module
from adrtag import training as training_module
from adrtag.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_USAGE, main
from adrtag.errors import CheckpointError, DataError, NumericalError
from adrtag.model import AdrModel
from adrtag.training import (CHECKPOINT_MAGIC, TrainConfig, heldout_split, load_checkpoint,
                             save_checkpoint)


def run_cli(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", ["adr", *args])
    code = 0
    try:
        main()
    except SystemExit as exc:
        code = exc.code or 0
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def workspace(tmp_path):
    """Synthetic raw corpus + lexicon + embeddings + labeled data."""
    lexicon = tmp_path / "drugs.txt"
    lexicon.write_text("effexor\ncymbalta\nseroquel\n")

    raw = tmp_path / "raw.tsv"
    rng = np.random.default_rng(0)
    fillers = ["ugh", "feel", "weird", "dizzy", "sleepy", "head", "hurts", "bad",
               "cant", "sleep", "today", "week", "month", "still"]
    drugs = ["effexor", "cymbalta", "seroquel"]
    lines = []
    for i in range(40):
        words = [fillers[j] for j in rng.integers(0, len(fillers), 6)]
        words[int(rng.integers(0, 6))] = drugs[i % 3]
        words.append("nightsweats")  # unlabeled-only word, absent from labeled data
        lines.append(f"t{i}\t{' '.join(words)}")
    lines.append("t-none\tfeeling fine today")
    lines.append("t-two\teffexor and cymbalta together")
    raw.write_text("\n".join(lines) + "\n")

    emb = tmp_path / "emb.txt"
    words = sorted(set(fillers))
    dim = 5
    erng = np.random.default_rng(1)
    with open(emb, "w") as fh:
        fh.write(f"{len(words)} {dim}\n")
        for w in words:
            fh.write(w + " " + " ".join(f"{x:.4f}" for x in erng.uniform(-0.3, 0.3, dim)) + "\n")

    def labeled_file(path, n, seed):
        lrng = np.random.default_rng(seed)
        chunks = []
        for _ in range(n):
            words = [fillers[j] for j in lrng.integers(0, len(fillers), 5)]
            pos = int(lrng.integers(0, 4))
            tags = ["O"] * 5
            tags[pos] = "I-ADR"
            if pos + 1 < 5 and lrng.random() < 0.3:
                tags[pos + 1] = "I-ADR"
            chunks.append("\n".join(f"{w}\t{t}" for w, t in zip(words, tags)))
        path.write_text("\n\n".join(chunks) + "\n")

    train = tmp_path / "train.tsv"
    test = tmp_path / "test.tsv"
    labeled_file(train, 8, seed=2)
    labeled_file(test, 5, seed=3)
    return tmp_path


class TestPreprocess:
    def test_counts_report(self, workspace, monkeypatch, capsys, tmp_path):
        out_path = tmp_path / "processed.tsv"
        code, out, _ = run_cli(
            monkeypatch, capsys, "preprocess",
            "--input", str(workspace / "raw.tsv"),
            "--lexicon", str(workspace / "drugs.txt"),
            "--out", str(out_path),
        )
        assert code == 0
        assert "kept=40" in out
        assert "rejected_no_drug=1" in out
        assert "rejected_multi_drug=1" in out
        assert len(out_path.read_text().splitlines()) == 40

    def test_three_tweet_example(self, workspace, monkeypatch, capsys, tmp_path):
        raw = tmp_path / "three.tsv"
        raw.write_text(
            "a\tfeeling fine\n"
            "b\tthis effexor sucks badly\n"
            "c\tcymbalta and effexor together\n"
        )
        code, out, _ = run_cli(
            monkeypatch, capsys, "preprocess",
            "--input", str(raw), "--lexicon", str(workspace / "drugs.txt"),
            "--out", str(tmp_path / "out.tsv"),
        )
        assert code == 0
        assert "kept=1" in out and "rejected_no_drug=1" in out and "rejected_multi_drug=1" in out

    def test_rerun_byte_identical(self, workspace, monkeypatch, capsys, tmp_path):
        outs = []
        for name in ("p1.tsv", "p2.tsv"):
            run_cli(
                monkeypatch, capsys, "preprocess",
                "--input", str(workspace / "raw.tsv"),
                "--lexicon", str(workspace / "drugs.txt"),
                "--out", str(tmp_path / name),
            )
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_empty_input_is_data_error(self, workspace, monkeypatch, capsys, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code, _, err = run_cli(
            monkeypatch, capsys, "preprocess",
            "--input", str(empty), "--lexicon", str(workspace / "drugs.txt"),
            "--out", str(tmp_path / "out.tsv"),
        )
        assert code == EXIT_DATA

    def test_stopwords_file_replaces_the_default_list(self, workspace, monkeypatch, capsys,
                                                       tmp_path):
        """--stopwords drops its words and keeps the default list's ("the").
        Also: a blank line is skipped, a tweet with no token left is counted
        as dropped, and a URL, an @handle, a literal <USER> and non-ASCII text
        normalize as documented."""
        stop = tmp_path / "stop.txt"
        stop.write_text("ugh\n\nfeel\n")
        raw = tmp_path / "raw.tsv"
        raw.write_text("t1\tugh the effexor @doc_x <USER> naïve 😷 https://x.co/a\n"
                       "\n"
                       "t2\tugh feel\n"
                       "t3\tthe cymbalta\n")
        out_path = tmp_path / "out.tsv"
        code, out, err = run_cli(monkeypatch, capsys, "preprocess", "--input", str(raw),
                                 "--lexicon", str(workspace / "drugs.txt"),
                                 "--stopwords", str(stop), "--out", str(out_path))
        assert (code, err) == (0, "")
        assert out == "kept=2 rejected_no_drug=0 rejected_multi_drug=0 dropped_empty=1\n"
        assert out_path.read_text() == ("t1\teffexor\tthe <DRUG> <USER> <USER> nave <LINK>\n"
                                        "t3\tcymbalta\tthe <DRUG>\n")

    def test_stopwords_file_is_normalized_like_tweets(self, workspace, monkeypatch, capsys,
                                                      tmp_path):
        """A stopword with a capital or an apostrophe removes the token that
        tweet text normalizes to: "The" removes "the", "Don't" removes "dont"."""
        stop = tmp_path / "stop.txt"
        stop.write_text("The\nDon't\n")
        raw = tmp_path / "raw.tsv"
        raw.write_text("t1\tThe effexor made me dizzy, don't know why\n")
        out_path = tmp_path / "out.tsv"
        code, _, err = run_cli(monkeypatch, capsys, "preprocess", "--input", str(raw),
                               "--lexicon", str(workspace / "drugs.txt"),
                               "--stopwords", str(stop), "--out", str(out_path))
        assert (code, err) == (0, "")
        assert out_path.read_text() == "t1\teffexor\t<DRUG> made me dizzy know why\n"

    def test_drug_names_are_normalized_like_tweets(self, monkeypatch, capsys, tmp_path):
        """A lexicon name with a hyphen, a capital or a dot names the token
        tweet text normalizes to, and the corpus carries that token."""
        lexicon = tmp_path / "drugs.txt"
        lexicon.write_text("Co-Codamol\neffexor\nst.johns\n")
        raw = tmp_path / "raw.tsv"
        raw.write_text("t1\ttook co-codamol today, so dizzy\n"
                       "t2\tmy st.johns wort is great\n"
                       "t3\tEffexor dreams\n")
        out_path = tmp_path / "out.tsv"
        code, out, err = run_cli(monkeypatch, capsys, "preprocess", "--input", str(raw),
                                 "--lexicon", str(lexicon), "--out", str(out_path))
        assert (code, err) == (0, "")
        assert out == "kept=3 rejected_no_drug=0 rejected_multi_drug=0 dropped_empty=0\n"
        assert out_path.read_text() == ("t1\tcocodamol\ttook <DRUG> today dizzy\n"
                                        "t2\tstjohns\t<DRUG> wort great\n"
                                        "t3\teffexor\t<DRUG> dreams\n")


class TestPipeline:
    def test_end_to_end(self, workspace, monkeypatch, capsys, tmp_path):
        processed = tmp_path / "processed.tsv"
        vocab = tmp_path / "vocab.txt"
        pre_ckpt = tmp_path / "pre.ckpt"
        ckpt = tmp_path / "model.ckpt"

        code, _, _ = run_cli(monkeypatch, capsys, "preprocess",
                             "--input", str(workspace / "raw.tsv"),
                             "--lexicon", str(workspace / "drugs.txt"),
                             "--out", str(processed))
        assert code == 0

        code, out, _ = run_cli(monkeypatch, capsys, "build-vocab",
                               "--unlabeled", str(processed),
                               "--labeled", str(workspace / "train.tsv"),
                               "--cap", "100", "--out", str(vocab))
        assert code == 0 and "vocabulary size" in out

        code, out, _ = run_cli(monkeypatch, capsys, "pretrain",
                               "--corpus", str(processed), "--vocab", str(vocab),
                               "--embeddings", str(workspace / "emb.txt"),
                               "--lexicon", str(workspace / "drugs.txt"),
                               "--out", str(pre_ckpt), "--log", str(tmp_path / "pre.log"),
                               "--hidden", "6", "--epochs", "2", "--batch-size", "8",
                               "--max-len", "12", "--seed", "0")
        assert code == 0, out
        assert pre_ckpt.exists() and (tmp_path / "pre.log").exists()

        code, out, _ = run_cli(monkeypatch, capsys, "train",
                               "--labeled", str(workspace / "train.tsv"),
                               "--init-checkpoint", str(pre_ckpt),
                               "--out", str(ckpt), "--log", str(tmp_path / "train.log"),
                               "--epochs", "2", "--max-len", "12", "--seed", "0")
        assert code == 0, out
        assert "training tweets: 8" in out

        code, out, _ = run_cli(monkeypatch, capsys, "evaluate",
                               "--checkpoint", str(ckpt),
                               "--test", str(workspace / "test.tsv"))
        assert code == 0
        assert "mean ± std" in out

        code, out, _ = run_cli(monkeypatch, capsys, "predict",
                               "--checkpoint", str(ckpt),
                               "--text", "ugh this effexor gives me weird dreams")
        assert code == 0
        tags = [line.split("\t")[1] for line in out.splitlines()
                if "\t" in line and not line.startswith("span")]
        assert tags and all(t in {"I-ADR", "I-IND", "O"} for t in tags)

    def test_multi_trial_evaluation(self, workspace, monkeypatch, capsys, tmp_path):
        """One trial per --checkpoint: three taggers trained from one model
        with seeds 0, 1 and 2, then evaluated together."""
        vocab = tmp_path / "vocab.txt"
        init = tmp_path / "init.ckpt"
        run_cli(monkeypatch, capsys, "build-vocab",
                "--labeled", str(workspace / "train.tsv"),
                "--cap", "100", "--out", str(vocab))
        run_cli(monkeypatch, capsys, "train",
                "--labeled", str(workspace / "train.tsv"),
                "--vocab", str(vocab), "--embeddings", str(workspace / "emb.txt"),
                "--hidden", "5", "--epochs", "0", "--max-len", "12",
                "--out", str(init))
        checkpoints = []
        for seed in range(3):
            checkpoints += ["--checkpoint", str(tmp_path / f"t{seed}.ckpt")]
            code, _, err = run_cli(monkeypatch, capsys, "train",
                                   "--labeled", str(workspace / "train.tsv"),
                                   "--init-checkpoint", str(init), "--epochs", "1",
                                   "--max-len", "12", "--seed", str(seed),
                                   "--out", checkpoints[-1])
            assert (code, err) == (0, "")
        code, out, _ = run_cli(monkeypatch, capsys, "evaluate", *checkpoints,
                               "--test", str(workspace / "test.tsv"),
                               "--report", str(tmp_path / "report.txt"))
        assert code == 0
        assert len(out.strip().splitlines()) == 5  # header + 3 trials + summary
        assert (tmp_path / "report.txt").read_text() == out

    @staticmethod
    def _three_checkpoints(tmp_path):
        """--checkpoint flags naming three files of one tiny tagger."""
        flags = []
        for i in range(3):
            _save_tiny_checkpoint(tmp_path / f"t{i}.ckpt")
            flags += ["--checkpoint", str(tmp_path / f"t{i}.ckpt")]
        return flags

    def test_trials_never_hold_two_models(self, workspace, monkeypatch, capsys, tmp_path):
        load, loaded = cli_module._load_tagger, []

        def checked_load(*args, **kwargs):
            assert all(ref() is None for ref in loaded), "the previous trial's model is alive"
            model, vocab_obj = load(*args, **kwargs)
            loaded.append(weakref.ref(model))
            return model, vocab_obj

        monkeypatch.setattr(cli_module, "_load_tagger", checked_load)
        code, _, err = run_cli(monkeypatch, capsys, "evaluate", *self._three_checkpoints(tmp_path),
                               "--test", str(workspace / "test.tsv"))
        assert (code, err) == (0, "")
        assert len(loaded) == 3

    def test_trials_read_each_file_once(self, workspace, monkeypatch, capsys, tmp_path):
        read, reads = cli_module.encoding.read_conll, []

        def counted_read(path, *args, **kwargs):
            reads.append(Path(path).name)
            return read(path, *args, **kwargs)

        monkeypatch.setattr(cli_module.encoding, "read_conll", counted_read)
        code, out, err = run_cli(monkeypatch, capsys, "evaluate",
                                 *self._three_checkpoints(tmp_path),
                                 "--test", str(workspace / "test.tsv"))
        assert (code, err) == (0, "")
        assert len(out.strip().splitlines()) == 5  # header + 3 trials + summary
        assert reads == ["test.tsv"]

    def test_seed_repeat_identical_checkpoint(self, workspace, monkeypatch, capsys, tmp_path):
        processed = tmp_path / "p.tsv"
        vocab = tmp_path / "v.txt"
        run_cli(monkeypatch, capsys, "preprocess", "--input", str(workspace / "raw.tsv"),
                "--lexicon", str(workspace / "drugs.txt"), "--out", str(processed))
        run_cli(monkeypatch, capsys, "build-vocab", "--unlabeled", str(processed),
                "--cap", "100", "--out", str(vocab))
        blobs = []
        for name in ("c1.ckpt", "c2.ckpt"):
            run_cli(monkeypatch, capsys, "pretrain",
                    "--corpus", str(processed), "--vocab", str(vocab),
                    "--embeddings", str(workspace / "emb.txt"),
                    "--lexicon", str(workspace / "drugs.txt"),
                    "--out", str(tmp_path / name),
                    "--hidden", "5", "--epochs", "1", "--batch-size", "16",
                    "--max-len", "12", "--seed", "7")
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_vocab_without_unlabeled_lacks_corpus_only_words(self, workspace, monkeypatch,
                                                             capsys, tmp_path):
        processed = tmp_path / "p.tsv"
        run_cli(monkeypatch, capsys, "preprocess", "--input", str(workspace / "raw.tsv"),
                "--lexicon", str(workspace / "drugs.txt"), "--out", str(processed))
        both = tmp_path / "both.txt"
        labeled_only = tmp_path / "labeled.txt"
        run_cli(monkeypatch, capsys, "build-vocab", "--unlabeled", str(processed),
                "--labeled", str(workspace / "train.tsv"), "--cap", "100",
                "--out", str(both))
        run_cli(monkeypatch, capsys, "build-vocab",
                "--labeled", str(workspace / "train.tsv"), "--cap", "100",
                "--out", str(labeled_only))
        v_both = set(both.read_text().split())
        v_labeled = set(labeled_only.read_text().split())
        assert v_labeled < v_both  # masked-corpus-only words are missing

    def test_relative_checkpoint_path_is_read_as_typed(self, workspace, monkeypatch, capsys,
                                                       tmp_path):
        """A relative checkpoint path names a file in the working directory,
        whatever the environment holds: $ADR_CHECKPOINT_DIR is not read."""
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.setenv("ADR_CHECKPOINT_DIR", str(elsewhere))
        monkeypatch.chdir(tmp_path)
        vocab = tmp_path / "v.txt"
        run_cli(monkeypatch, capsys, "build-vocab",
                "--labeled", str(workspace / "train.tsv"), "--cap", "50",
                "--out", str(vocab))
        code, _, err = run_cli(monkeypatch, capsys, "train",
                               "--labeled", str(workspace / "train.tsv"),
                               "--vocab", str(vocab),
                               "--embeddings", str(workspace / "emb.txt"),
                               "--hidden", "4", "--epochs", "0", "--max-len", "12",
                               "--out", "rel.ckpt")
        assert code == 0, err
        assert (tmp_path / "rel.ckpt").exists()
        assert list(elsewhere.iterdir()) == []
        code, out, err = run_cli(monkeypatch, capsys, "predict", "--checkpoint", "rel.ckpt",
                                 "--text", "ugh so dizzy")
        assert code == 0, err
        assert out.startswith("ugh\t")


class TestErrors:
    def test_malformed_labeled_line_is_data_error(self, workspace, monkeypatch,
                                                  capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("ugh\tO\nweird\tB-ADR\n")
        vocab = tmp_path / "v.txt"
        run_cli(monkeypatch, capsys, "build-vocab",
                "--labeled", str(workspace / "train.tsv"), "--cap", "50",
                "--out", str(vocab))
        code, _, err = run_cli(monkeypatch, capsys, "train",
                               "--labeled", str(bad), "--vocab", str(vocab),
                               "--embeddings", str(workspace / "emb.txt"),
                               "--hidden", "4", "--epochs", "1",
                               "--out", str(tmp_path / "x.ckpt"))
        assert code == EXIT_DATA
        assert "line 2" in err

    def test_missing_embeddings_file(self, workspace, monkeypatch, capsys, tmp_path):
        vocab = tmp_path / "v.txt"
        run_cli(monkeypatch, capsys, "build-vocab",
                "--labeled", str(workspace / "train.tsv"), "--cap", "50",
                "--out", str(vocab))
        code, _, _ = run_cli(monkeypatch, capsys, "pretrain",
                             "--corpus", str(workspace / "train.tsv"),
                             "--vocab", str(vocab),
                             "--embeddings", str(tmp_path / "missing.txt"),
                             "--lexicon", str(workspace / "drugs.txt"),
                             "--out", str(tmp_path / "x.ckpt"))
        assert code == EXIT_USAGE  # click rejects the nonexistent path

    def test_train_without_vocab_is_usage_error(self, workspace, monkeypatch, capsys,
                                                tmp_path):
        code, _, err = run_cli(monkeypatch, capsys, "train",
                               "--labeled", str(workspace / "train.tsv"),
                               "--out", str(tmp_path / "x.ckpt"))
        assert code == EXIT_USAGE


def _save_tiny_checkpoint(path, vocabulary=True):
    """A hidden=2, mean-pooled model over a 7-token vocabulary."""
    tokens = ["<PAD>", "<UNK>", "<LINK>", "<USER>", "<DRUG>", "ugh", "dizzy"]
    model = AdrModel(np.random.default_rng(0).normal(size=(len(tokens), 3)),
                     hidden=2, drug_count=2, seed=0,
                     vocab_tokens=tokens if vocabulary else None, drug_names=["a", "b"])
    save_checkpoint(model, path)


def _huge_embeddings_checkpoint(path):
    """Finite embeddings so large that the encoder's gate sums overflow."""
    tokens = ["<PAD>", "<UNK>", "<LINK>", "<USER>", "<DRUG>", "ugh", "dizzy"]
    embeddings = np.full((len(tokens), 3), 1.7e308)
    embeddings[0] = 0.0
    model = AdrModel(embeddings, hidden=2, drug_count=2, seed=0, vocab_tokens=tokens,
                     drug_names=["a", "b"])
    model.cells[0].i.value[...] = 1.0
    save_checkpoint(model, path)


def _huge_tag_head(header, arrays):
    """A _rewrite_checkpoint edit: finite tag-head weights so large that a
    training step's first encoder gradient, but neither its forward pass nor
    its loss, overflows. The rows differ, so that dlogits @ w is not 0."""
    w = arrays["tag.w"]
    w[:] = 1e200 * np.arange(w.size).reshape(w.shape)


def _tags_every_token_adr(header, arrays):
    """A _rewrite_checkpoint edit: the tag head scores I-ADR highest everywhere."""
    arrays["tag.w"].fill(0.0)
    arrays["tag.b"][:] = [5.0, 0.0, 0.0, 0.0]  # I-ADR, I-IND, O, PAD


def _one_drug(header, arrays):
    """A _rewrite_checkpoint edit: a drug catalog of one name, the file
    consistent with it."""
    header.update(drug_count=1, drug_names=["a"])
    for name in ("drug.w", "drug.b"):
        arrays[name] = arrays[name][:1]
    header["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]


def _no_hidden_units(header, arrays):
    """A _rewrite_checkpoint edit: a model of hidden 0, the file consistent
    with it: each encoder array and head weight keeps no row or column of H."""
    header["hidden"] = 0
    for name, a in arrays.items():
        if name.startswith(("fwd.", "bwd.")):
            arrays[name] = a[:0, :0] if ".w_" in name else a[:0]
        elif name.endswith(".w"):
            arrays[name] = a[:, :0]
    header["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]


@pytest.mark.parametrize(
    "key", ["hidden", "emb", "drug_count", "seed", "pooling", "gate_biases", "arrays"]
)
def test_checkpoint_header_missing_key_is_data_error(monkeypatch, capsys, tmp_path, key):
    path = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(path)
    _rewrite_header(path, lambda header: header.pop(key))

    code, _, err = run_cli(monkeypatch, capsys, "predict",
                           "--checkpoint", str(path), "--text", "ugh so dizzy")
    assert code == EXIT_DATA
    assert repr(key) in err and "Traceback" not in err


def _rewrite_checkpoint(path, edit):
    """Apply ``edit(header, arrays)`` in place to the checkpoint's JSON header
    and its arrays, a dict of name -> array in file order. The header's array
    list is written as ``edit`` leaves it. No model loaded from ``path`` may
    be alive: its table maps the file, and reading it after the file is cut
    short in place ends the process with SIGBUS."""
    data = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(data[len(CHECKPOINT_MAGIC) : start], "little")
    header = json.loads(data[start:end])
    arrays, offset = {}, end
    for entry in header["arrays"]:
        count = math.prod(entry["shape"])
        arrays[entry["name"]] = np.frombuffer(data, np.float64, count, offset).reshape(
            entry["shape"]).copy()
        offset += 8 * count
    edit(header, arrays)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob
                     + b"".join(a.tobytes() for a in arrays.values()))


def _without_gate_biases(header, arrays):
    """A _rewrite_checkpoint edit: a model without gate biases, as
    `--no-gate-biases` wrote it: the header says false, and no direction
    has its b_* arrays."""
    header["gate_biases"] = False
    for name in [n for n in arrays if ".b_" in n]:
        del arrays[name]
    header["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]


def _rewrite_header(path, edit):
    """Apply ``edit`` to the checkpoint's JSON header in place; arrays untouched."""
    _rewrite_checkpoint(path, lambda header, arrays: edit(header))


def test_vocabulary_longer_than_embeddings_is_data_error(monkeypatch, capsys, tmp_path):
    path = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(path)
    _rewrite_header(path, lambda header: header["vocab_tokens"].extend(["so", "here", "words"]))

    code, _, err = run_cli(monkeypatch, capsys, "predict",
                           "--checkpoint", str(path), "--text", "ugh here words")
    assert code == EXIT_DATA
    assert "model.ckpt: header implies embeddings of shape (10, 3)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags", [["--vocab", "vocab.txt"], ["--embeddings", "emb.txt"]],
    ids=["vocab", "embeddings"],
)
def test_init_checkpoint_rejects_architecture_flags(workspace, monkeypatch, capsys,
                                                    tmp_path, flags):
    """The checkpoint fixes the vocabulary and the embeddings."""
    ckpt = tmp_path / "init.ckpt"
    _save_tiny_checkpoint(ckpt)
    (workspace / "vocab.txt").write_text("<PAD>\n<UNK>\n<LINK>\n<USER>\n<DRUG>\nugh\n")
    args = [str(workspace / f) if f.endswith(".txt") else f for f in flags]
    code, _, err = run_cli(monkeypatch, capsys, "train",
                           "--labeled", str(workspace / "train.tsv"),
                           "--init-checkpoint", str(ckpt), *args,
                           "--epochs", "0", "--out", str(tmp_path / "x.ckpt"))
    assert code == EXIT_USAGE
    assert flags[0] in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_checkpoint_without_vocabulary_is_data_error(workspace, monkeypatch, capsys,
                                                     tmp_path, command):
    ckpt = tmp_path / "novocab.ckpt"
    _save_tiny_checkpoint(ckpt, vocabulary=False)
    out = tmp_path / "out.txt"
    args = {
        "train": ["--labeled", str(workspace / "train.tsv"), "--init-checkpoint", str(ckpt),
                  "--epochs", "0", "--out", str(out)],
        "evaluate": ["--checkpoint", str(ckpt), "--test", str(workspace / "test.tsv"),
                     "--report", str(out)],
        "predict": ["--checkpoint", str(ckpt), "--text", "ugh so dizzy"],
    }[command]
    code, _, err = run_cli(monkeypatch, capsys, command, *args)
    assert code == EXIT_DATA
    assert "novocab.ckpt: checkpoint carries no vocabulary" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "evaluate", "evaluate-second"])
def test_overflow_in_inference_is_numerical_error(workspace, monkeypatch, capsys, tmp_path,
                                                  command):
    """Finite but huge embedding rows overflow the encoder: exit 3 naming the
    checkpoint, also when it is the second one evaluated, no traceback, no
    tags and no report."""
    ckpt = tmp_path / "huge.ckpt"
    _huge_embeddings_checkpoint(ckpt)
    _save_tiny_checkpoint(tmp_path / "fine.ckpt")
    report = tmp_path / "report.txt"
    evaluate = ["evaluate", "--checkpoint", str(ckpt), "--test", str(workspace / "test.tsv"),
                "--report", str(report)]
    args = {
        "predict": ["predict", "--checkpoint", str(ckpt), "--text", "ugh so dizzy"],
        "evaluate": evaluate,
        "evaluate-second": ["evaluate", "--checkpoint", str(tmp_path / "fine.ckpt"),
                            *evaluate[1:]],
    }[command]
    code, out, err = run_cli(monkeypatch, capsys, *args)
    assert code == EXIT_NUMERICAL, err
    assert f"{ckpt}: encoder forward overflowed" in err
    if command != "predict":
        assert "on the tweets sent-" in err
    assert "Traceback" not in err and out == ""
    assert not report.exists()


def test_missing_second_checkpoint_is_data_error(workspace, monkeypatch, capsys, tmp_path):
    """A second --checkpoint that does not exist is exit 2 naming it, once
    the first trial has run: no trial line is printed and no report written."""
    _save_tiny_checkpoint(tmp_path / "fine.ckpt")
    report = tmp_path / "r.txt"
    code, out, err = run_cli(monkeypatch, capsys, "evaluate",
                             "--checkpoint", str(tmp_path / "fine.ckpt"),
                             "--checkpoint", str(tmp_path / "missing.ckpt"),
                             "--test", str(workspace / "test.tsv"), "--report", str(report))
    assert code == EXIT_DATA, err
    assert err.startswith("error: ") and "missing.ckpt" in err and "Traceback" not in err
    assert out == ""
    assert not report.exists()


@pytest.mark.parametrize("command", ["preprocess", "evaluate"])
def test_failed_output_write_keeps_previous_file(workspace, monkeypatch, capsys, tmp_path,
                                                 disk_fills_up, command):
    out = tmp_path / "out.txt"
    out.write_text("previous\n")
    ckpt = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(ckpt)
    args = {
        "preprocess": ["--input", str(workspace / "raw.tsv"),
                       "--lexicon", str(workspace / "drugs.txt"), "--out", str(out)],
        "evaluate": ["--checkpoint", str(ckpt), "--test", str(workspace / "test.tsv"),
                     "--report", str(out)],
    }[command]
    listing = sorted(p.name for p in tmp_path.iterdir())
    disk_fills_up(20)
    code, _, err = run_cli(monkeypatch, capsys, command, *args)
    assert code == EXIT_DATA
    assert "No space left" in err and str(out) in err and "Traceback" not in err
    assert out.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


def test_output_under_a_regular_file_is_data_error(workspace, monkeypatch, capsys, tmp_path):
    out = tmp_path / "afile" / "out.tsv"
    (tmp_path / "afile").write_text("not a directory\n")
    code, _, err = run_cli(monkeypatch, capsys, "preprocess",
                           "--input", str(workspace / "raw.tsv"),
                           "--lexicon", str(workspace / "drugs.txt"), "--out", str(out))
    assert code == EXIT_DATA
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_two_outputs_naming_one_file_are_usage_error(workspace, monkeypatch, capsys, tmp_path,
                                                     command):
    """--out and --log naming one file would leave only the log there: a
    usage error naming both flags, raised before any input (here each is not
    UTF-8) is read."""
    inputs = _training_inputs(workspace, monkeypatch, capsys, tmp_path, command)
    for path in inputs[1::2]:
        Path(path).write_bytes(b"\xff\n")
    same = tmp_path / "same.out"
    listing = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(monkeypatch, capsys, command, *inputs,
                             "--out", str(same), "--log", str(same))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: --out and --log name one file: "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


@pytest.mark.parametrize("directory", [False, True], ids=["in-missing-dir", "is-a-dir"])
@pytest.mark.parametrize("command, flag", [("pretrain", "--out"), ("pretrain", "--log"),
                                           ("train", "--out"), ("train", "--log"),
                                           ("evaluate", "--report"), ("build-vocab", "--out"),
                                           ("preprocess", "--out")])
def test_output_that_cannot_be_written_fails_before_the_work(workspace, monkeypatch, capsys,
                                                             tmp_path, command, flag,
                                                             directory):
    """Every output is opened before the command reads its inputs, so one
    in a missing directory, or one that is a directory, is exit 2 naming
    it, with nothing on stdout and no other output written."""
    if command == "evaluate":
        _save_tiny_checkpoint(tmp_path / "model.ckpt")
        args = ["--checkpoint", str(tmp_path / "model.ckpt"), "--test", str(workspace / "test.tsv")]
        outputs = {"--report": tmp_path / "report.txt"}
    elif command == "build-vocab":
        monkeypatch.setattr(cli_module.text.Vocabulary, "build",
                            lambda *a, **kw: pytest.fail("vocabulary built"))
        args, outputs = ["--labeled", str(workspace / "train.tsv")], {"--out": tmp_path / "v.txt"}
    elif command == "preprocess":
        monkeypatch.setattr(cli_module.text.DrugLexicon, "load",
                            lambda *a, **kw: pytest.fail("lexicon loaded"))
        args = ["--input", str(workspace / "raw.tsv"), "--lexicon", str(workspace / "drugs.txt")]
        outputs = {"--out": tmp_path / "p.tsv"}
    else:
        args = _training_inputs(workspace, monkeypatch, capsys, tmp_path, command)
        args += ["--hidden", "2", "--epochs", "1"]
        outputs = {"--out": tmp_path / "x.ckpt", "--log": tmp_path / "x.jsonl"}
    outputs[flag] = tmp_path / "nodir" / "x"
    if directory:
        outputs[flag].mkdir(parents=True)
    listing = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(monkeypatch, capsys, command, *args,
                             *(a for item in outputs.items() for a in map(str, item)))
    assert (code, out) == (EXIT_DATA, "")
    code = errno.EISDIR if directory else errno.ENOENT
    assert err == f"error: [Errno {code}] {os.strerror(code)}: '{outputs[flag]}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


# setting -> (its flags equal to _save_tiny_checkpoint's, then different)
_ARCHITECTURE = {
    "hidden": (["--hidden", "2"], ["--hidden", "3"]),
}


@pytest.mark.parametrize("same", [True, False], ids=["flag-equal", "flag-different"])
@pytest.mark.parametrize("setting", sorted(_ARCHITECTURE))
def test_init_checkpoint_architecture_setting_must_match(workspace, monkeypatch, capsys,
                                                         tmp_path, setting, same):
    """A hidden flag given with --init-checkpoint must equal the
    checkpoint's: equal changes nothing, different is a usage error naming
    the setting and both values."""
    ckpt = tmp_path / "init.ckpt"
    _save_tiny_checkpoint(ckpt)
    flags = _ARCHITECTURE[setting][0 if same else 1]

    def train(out, *extra):
        return run_cli(monkeypatch, capsys, "train", "--labeled", str(workspace / "train.tsv"),
                       "--init-checkpoint", str(ckpt), "--epochs", "1", "--out", str(out),
                       "--log", str(out) + ".jsonl", *extra)

    assert train(tmp_path / "plain.ckpt")[0] == 0
    listing = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = train(tmp_path / "x.ckpt", *flags)
    if same:
        assert (code, err) == (0, ""), err
        assert (tmp_path / "x.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()
    else:
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {setting}: 3 given, but --init-checkpoint {ckpt} has 2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == listing


class TestGradcheckCommand:
    @pytest.fixture
    def small_shape(self, monkeypatch):
        """The check at E=H=T=3, about five times faster than at its own shape."""
        import adrtag.model as m

        for name in ("GRADCHECK_EMB", "GRADCHECK_HIDDEN", "GRADCHECK_TIMESTEPS"):
            monkeypatch.setattr(m, name, 3)

    def test_passes_quickly(self, monkeypatch, capsys, small_shape):
        code, out, _ = run_cli(monkeypatch, capsys, "gradcheck", "--seeds", "1")
        assert code == 0
        assert "all gradients match" in out

    @pytest.mark.parametrize("flag, value", [("--seeds", "0")])
    def test_out_of_range_setting_is_usage_error_naming_the_flag(self, monkeypatch, capsys,
                                                                 flag, value):
        """A setting that would check nothing is refused before any check runs."""
        code, out, err = run_cli(monkeypatch, capsys, "gradcheck", flag, value)
        assert code == EXIT_USAGE
        assert flag in err and "Traceback" not in err
        assert out == ""

    def test_injected_sign_error_fails(self, monkeypatch, capsys, small_shape):
        import adrtag.model as m

        original = m._backprop_encoder
        monkeypatch.setattr(m, "_backprop_encoder",
                            lambda cells, rec, dh, sink, shared_rows=False:
                            original(cells, rec, -dh, sink, shared_rows))
        code, _, _ = run_cli(monkeypatch, capsys, "gradcheck", "--seeds", "1")
        assert code == EXIT_NUMERICAL


# Name -> (opts, secondary_opts, type name, choices, required, value when omitted),
# recorded before the flags of `pretrain` and `train` came from one settings table;
# `gradcheck`'s shape, step and tolerance are constants in adrtag.model, not flags.
FLAG_SURFACE = {
    "preprocess": {
        "input_path": (("--input",), (), "path", (), True, None),
        "lexicon": (("--lexicon",), (), "path", (), True, None),
        "stopwords": (("--stopwords",), (), "path", (), False, None),
        "out_path": (("--out",), (), "path", (), True, None),
    },
    "build-vocab": {
        "unlabeled": (("--unlabeled",), (), "path", (), False, None),
        "labeled": (("--labeled",), (), "path", (), False, None),
        "cap": (("--cap",), (), "integer range", (), False, 15000),
        "out_path": (("--out",), (), "path", (), True, None),
    },
    "pretrain": {
        "corpus": (("--corpus",), (), "path", (), True, None),
        "vocab": (("--vocab",), (), "path", (), True, None),
        "embeddings": (("--embeddings",), (), "path", (), True, None),
        "lexicon": (("--lexicon",), (), "path", (), True, None),
        "out_path": (("--out",), (), "path", (), True, None),
        "log_path": (("--log",), (), "path", (), False, None),
        "hidden": (("--hidden",), (), "integer range", (), False, None),
        "epochs": (("--epochs",), (), "integer", (), False, None),
        "batch_size": (("--batch-size",), (), "integer", (), False, None),
        "max_len": (("--max-len",), (), "integer", (), False, None),
        "seed": (("--seed",), (), "integer", (), False, None),
        "learning_rate": (("--learning-rate",), (), "float", (), False, None),
    },
    "train": {
        "labeled": (("--labeled",), (), "path", (), True, None),
        "vocab": (("--vocab",), (), "path", (), False, None),
        "embeddings": (("--embeddings",), (), "path", (), False, None),
        "init_checkpoint": (("--init-checkpoint",), (), "path", (), False, None),
        "out_path": (("--out",), (), "path", (), True, None),
        "log_path": (("--log",), (), "path", (), False, None),
        "hidden": (("--hidden",), (), "integer range", (), False, None),
        "epochs": (("--epochs",), (), "integer", (), False, None),
        "batch_size": (("--batch-size",), (), "integer", (), False, None),
        "max_len": (("--max-len",), (), "integer", (), False, None),
        "seed": (("--seed",), (), "integer", (), False, None),
        "learning_rate": (("--learning-rate",), (), "float", (), False, None),
    },
    "evaluate": {
        "checkpoints": (("--checkpoint",), (), "path", (), True, None),
        "test_path": (("--test",), (), "path", (), True, None),
        "label": (("--label",), (), "choice", ("ADR", "IND"), False, "ADR"),
        "report_path": (("--report",), (), "path", (), False, None),
    },
    "predict": {
        "checkpoint": (("--checkpoint",), (), "path", (), True, None),
        "raw_text": (("--text",), (), "text", (), False, None),
    },
    "gradcheck": {
        "seeds": (("--seeds",), (), "integer range", (), False, 10),
    },
}


@pytest.mark.parametrize("name", sorted(FLAG_SURFACE))
def test_flag_surface_is_unchanged(name):
    command = cli_module.cli.commands[name]
    omitted = command.make_context(name, [], resilient_parsing=True).params
    surface = {
        p.name: (tuple(p.opts), tuple(p.secondary_opts), p.type.name,
                 tuple(getattr(p.type, "choices", ())), p.required, omitted[p.name])
        for p in command.params
    }
    assert surface == FLAG_SURFACE[name]


def test_cli_imports_no_yaml():
    """Training settings come only from flags, so no config parser is loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(adrtag.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", "import sys, adrtag.cli; "
                           "print('yaml' in sys.modules)"], env=env, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def _training_inputs(workspace, monkeypatch, capsys, tmp_path, command):
    """Valid input flags for `pretrain` or `train`, so only the flags under test can fail."""
    vocab = tmp_path / "v.txt"
    if command == "train":
        run_cli(monkeypatch, capsys, "build-vocab", "--labeled", str(workspace / "train.tsv"),
                "--cap", "50", "--out", str(vocab))
        inputs = ["--labeled", str(workspace / "train.tsv")]
    else:
        processed = tmp_path / "p.tsv"
        run_cli(monkeypatch, capsys, "preprocess", "--input", str(workspace / "raw.tsv"),
                "--lexicon", str(workspace / "drugs.txt"), "--out", str(processed))
        run_cli(monkeypatch, capsys, "build-vocab", "--unlabeled", str(processed),
                "--cap", "50", "--out", str(vocab))
        inputs = ["--corpus", str(processed), "--lexicon", str(workspace / "drugs.txt")]
    return inputs + ["--vocab", str(vocab), "--embeddings", str(workspace / "emb.txt")]


def test_embeddings_with_a_duplicate_token_is_data_error(workspace, monkeypatch, capsys,
                                                         tmp_path):
    inputs = _training_inputs(workspace, monkeypatch, capsys, tmp_path, "train")
    emb = workspace / "emb.txt"
    lines = emb.read_text().splitlines()
    count, dim = lines[0].split()
    emb.write_text("\n".join([f"{int(count) + 1} {dim}", *lines[1:], lines[1]]) + "\n")
    code, _, err = run_cli(monkeypatch, capsys, "train", *inputs, "--epochs", "0",
                           "--out", str(tmp_path / "x.ckpt"))
    assert code == EXIT_DATA
    assert f"emb.txt: line {len(lines) + 1}: duplicate token" in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("content", ["0 -3\n", "1 0\nugh\n"], ids=["negative-D", "zero-D"])
def test_embeddings_header_sizes_are_data_errors(workspace, monkeypatch, capsys, tmp_path,
                                                 content):
    inputs = _training_inputs(workspace, monkeypatch, capsys, tmp_path, "pretrain")
    (workspace / "emb.txt").write_text(content)
    code, _, err = run_cli(monkeypatch, capsys, "pretrain", *inputs, "--epochs", "1",
                           "--out", str(tmp_path / "x.ckpt"))
    assert code == EXIT_DATA
    assert "emb.txt: header 'V D' needs V >= 0 and D >= 1" in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


def test_checkpoint_vocabulary_with_a_duplicate_is_data_error(monkeypatch, capsys, tmp_path):
    path = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(path)
    _rewrite_header(path, lambda header: header["vocab_tokens"].__setitem__(6, "ugh"))
    code, _, err = run_cli(monkeypatch, capsys, "predict",
                           "--checkpoint", str(path), "--text", "ugh so dizzy")
    assert code == EXIT_DATA
    assert "model.ckpt: vocab_tokens: entry 7: duplicate token 'ugh'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_truncation_at_max_len_is_reported(workspace, monkeypatch, capsys, tmp_path, command):
    inputs = _training_inputs(workspace, monkeypatch, capsys, tmp_path, command)
    if command == "train":
        lengths = [5] * 8  # every labeled tweet has 5 tokens
    else:
        lengths = [len(line.split("\t")[2].split())
                   for line in (tmp_path / "p.tsv").read_text().splitlines()]
    code, out, err = run_cli(monkeypatch, capsys, command, *inputs, "--hidden", "3",
                             "--epochs", "1", "--max-len", "4", "--out", str(tmp_path / "x.ckpt"))
    assert code == 0, err
    cut = sum(n > 4 for n in lengths)
    assert cut > 0
    assert f"truncated: {cut} of {len(lengths)} tweets longer than max_len 4\n" in out


def test_preprocess_leaves_no_output_when_all_rejected(workspace, monkeypatch, capsys,
                                                       tmp_path):
    raw = tmp_path / "raw.tsv"
    raw.write_text("a\tfeeling fine\nb\tcymbalta and effexor together\n")
    out_path = tmp_path / "out.tsv"
    code, out, err = run_cli(monkeypatch, capsys, "preprocess", "--input", str(raw),
                             "--lexicon", str(workspace / "drugs.txt"),
                             "--out", str(out_path))
    assert code == EXIT_DATA
    assert "kept=0" in out and "no tweets survived" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_non_finite_loss_is_numerical_error(workspace, monkeypatch, capsys, tmp_path,
                                            command):
    """A NaN embedding row read by one tweet: exit 3 naming that tweet, no
    traceback and no checkpoint."""
    words = ["ugh", "feel", "dizzy", "head", "hurts", "sleepy"]
    corpus, labeled = tmp_path / "corpus.tsv", tmp_path / "labeled.tsv"
    corpus.write_text("".join(
        f"t{i}\teffexor\t{' '.join(words[i % 3 :] + (['zzz'] if i == 4 else []))}\n"
        for i in range(6)
    ))
    labeled.write_text("\n\n".join(
        "\n".join(f"{w}\tO" for w in words[i % 3 :] + (["zzz"] if i == 4 else []))
        for i in range(6)
    ) + "\n")
    vocab = tmp_path / "vocab.txt"
    code, _, _ = run_cli(monkeypatch, capsys, "build-vocab", "--unlabeled", str(corpus),
                         "--labeled", str(labeled), "--out", str(vocab))
    assert code == 0
    load_embeddings = cli_module.text.load_embeddings

    def poisoned(path, vocab, seed=0):
        table = load_embeddings(path, vocab, seed=seed)
        table.vectors[vocab.index("zzz")] = np.nan
        return table

    monkeypatch.setattr(cli_module.text, "load_embeddings", poisoned)
    out_path = tmp_path / "out.ckpt"
    inputs = (["--corpus", str(corpus), "--lexicon", str(workspace / "drugs.txt")]
              if command == "pretrain" else ["--labeled", str(labeled)])
    code, _, err = run_cli(monkeypatch, capsys, command, *inputs, "--vocab", str(vocab),
                           "--embeddings", str(workspace / "emb.txt"),
                           "--hidden", "4", "--epochs", "1", "--batch-size", "1",
                           "--out", str(out_path))
    assert code == EXIT_NUMERICAL, err
    assert "Traceback" not in err
    assert ("t4" if command == "pretrain" else "sent-4") in err and "epoch 0" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["pretrain", "train"])
@pytest.mark.parametrize("flag, value", [
    ("--hidden", "0"), ("--hidden", "-1"), ("--max-len", "0"), ("--max-len", "-2"),
    ("--seed", "-1"), ("--learning-rate", "nan"), ("--learning-rate", "inf"),
])
def test_out_of_range_setting_is_usage_error(workspace, monkeypatch, capsys, tmp_path,
                                             command, flag, value):
    inputs = _training_inputs(workspace, monkeypatch, capsys, tmp_path, command)
    loaded = []
    load_embeddings = cli_module.text.load_embeddings
    monkeypatch.setattr(cli_module.text, "load_embeddings",
                        lambda *a, **kw: loaded.append(a) or load_embeddings(*a, **kw))
    ckpt = tmp_path / "x.ckpt"
    code, _, err = run_cli(monkeypatch, capsys, command, *inputs, flag, value,
                           "--epochs", "1", "--out", str(ckpt))
    assert code == EXIT_USAGE, err
    assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
    assert "Traceback" not in err
    assert not ckpt.exists()
    if flag == "--hidden":  # refused as a flag, before the embeddings file is read
        assert loaded == []


@pytest.mark.parametrize("flags", [
    ["--labeled", "train.tsv"], ["--epochs", "5"], ["--epochs", "-3", "--seed", "-1",
                                                     "--max-len", "0"],
], ids=["labeled", "default-epochs", "out-of-range"])
def test_evaluate_rejects_retraining_flags_with_one_trial(workspace, monkeypatch, capsys,
                                                          tmp_path, flags):
    """`evaluate` scores each checkpoint as `train` left it, so a flag that
    only retraining would read is no option of it, even at a value that was
    once its default."""
    args = [str(workspace / f) if f.endswith(".tsv") else f for f in flags]
    code, out, err = run_cli(monkeypatch, capsys, "evaluate",
                             "--checkpoint", str(tmp_path / "none.ckpt"),
                             "--test", str(workspace / "test.tsv"), *args)
    assert (code, out) == (EXIT_USAGE, "")
    assert "No such option" in err and flags[0] in err and "Traceback" not in err


# A value of each TrainConfig field that is no phase's default. On the workspace
# inputs max_len 4 cuts tweets (see test_truncation_at_max_len_is_reported) and
# batch_size 4 splits each training set.
_NON_DEFAULT = {"batch_size": 4, "epochs": 1, "max_len": 4, "seed": 3, "learning_rate": 0.02}


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_each_training_flag_reaches_its_phase(workspace, monkeypatch, capsys, tmp_path,
                                              command):
    """A run with one TrainConfig field's flag at a value that is not the
    default writes another checkpoint or log than the same run without it."""
    inputs = _training_inputs(workspace, monkeypatch, capsys, tmp_path, command)

    def outputs(*flags):
        ckpt, log = tmp_path / "x.ckpt", tmp_path / "x.jsonl"
        code, _, err = run_cli(monkeypatch, capsys, command, *inputs, "--hidden", "3",
                               *flags, "--out", str(ckpt), "--log", str(log))
        assert code == 0, err
        records = [json.loads(line) for line in log.read_text().splitlines()]
        return ckpt.read_bytes(), [{k: v for k, v in r.items() if k != "wall_time"}
                                   for r in records]

    plain = outputs()
    ignored = [f.name for f in fields(TrainConfig)
               if outputs("--" + f.name.replace("_", "-"), str(_NON_DEFAULT[f.name])) == plain]
    assert ignored == []


_VOCAB = "<PAD>\n<UNK>\n<LINK>\n<USER>\n<DRUG>\nugh\ndizzy\n"


@pytest.mark.parametrize("command", ["pretrain", "build-vocab"])
def test_corpus_record_without_tokens_is_data_error(workspace, monkeypatch, capsys, tmp_path,
                                                    command):
    """A record `adr preprocess` never writes is refused, naming its file and
    line, before any embeddings load or a vocabulary is built. build-vocab
    counts while it reads, so `Vocabulary.build` is entered but never returns."""
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("1\teffexor\tugh <DRUG>\n2\tibuprofen\t\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(_VOCAB)
    monkeypatch.setattr(cli_module.text, "load_embeddings",
                        lambda *a, **kw: pytest.fail("embeddings loaded"))
    build = cli_module.text.Vocabulary.build

    def build_never_returns(*a, **kw):
        build(*a, **kw)
        pytest.fail("vocabulary built")

    monkeypatch.setattr(cli_module.text.Vocabulary, "build", build_never_returns)
    out = tmp_path / "out"
    args = {
        "pretrain": ["--corpus", str(corpus), "--vocab", str(vocab),
                     "--embeddings", str(workspace / "emb.txt"),
                     "--lexicon", str(workspace / "drugs.txt")],
        "build-vocab": ["--unlabeled", str(corpus)],
    }[command]
    code, _, err = run_cli(monkeypatch, capsys, command, *args, "--out", str(out))
    assert code == EXIT_DATA
    assert f"{corpus}: line 2: record has no tokens" in err and "Traceback" not in err
    assert not out.exists()


# Each command line reads "{empty}", a file of blank lines, as one of its inputs.
EMPTY_INPUT_RUNS = {
    "pretrain-corpus": "pretrain --corpus {empty} --vocab {ws}/vocab.txt"
                       " --embeddings {ws}/emb.txt --lexicon {ws}/drugs.txt --out {ws}/out",
    "train-labeled": "train --labeled {empty} --vocab {ws}/vocab.txt --embeddings {ws}/emb.txt"
                     " --out {ws}/out",
    "evaluate-test": "evaluate --checkpoint {ws}/model.ckpt --test {empty} --report {ws}/out",
    "build-vocab-labeled": "build-vocab --labeled {empty} --out {ws}/out",
    "build-vocab-unlabeled": "build-vocab --unlabeled {empty} --out {ws}/out",
}


@pytest.mark.parametrize("run", sorted(EMPTY_INPUT_RUNS))
def test_input_without_records_is_data_error(workspace, monkeypatch, capsys, run):
    """Every command refuses an input that holds only blank lines, naming it
    and writing nothing, as `preprocess` does."""
    empty = workspace / "empty.tsv"
    empty.write_text("\n  \n\n")
    (workspace / "vocab.txt").write_text(_VOCAB)
    _save_tiny_checkpoint(workspace / "model.ckpt")
    argv = EMPTY_INPUT_RUNS[run].format(ws=workspace, empty=empty).split()
    code, _, err = run_cli(monkeypatch, capsys, *argv)
    assert code == EXIT_DATA, err
    assert f"error: {empty}: no " in err and "Traceback" not in err
    assert not (workspace / "out").exists()


def _stdin(data: bytes):
    """A standard input holding ``data``, with the byte ``buffer`` that
    ``predict`` reads."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_predict_reads_stdin_without_text(monkeypatch, capsys, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(ckpt)
    given = run_cli(monkeypatch, capsys, "predict", "--checkpoint", str(ckpt),
                    "--text", "ugh so dizzy")
    assert given[0] == 0 and given[1].startswith("ugh\t")
    monkeypatch.setattr(sys, "stdin", _stdin(b"ugh so dizzy\n"))
    assert run_cli(monkeypatch, capsys, "predict", "--checkpoint", str(ckpt)) == given


def test_predict_warns_on_input_empty_after_preprocessing(monkeypatch, capsys, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(ckpt)
    monkeypatch.setattr(sys, "stdin", _stdin("!!! 😷\n".encode("utf-8")))
    assert run_cli(monkeypatch, capsys, "predict", "--checkpoint", str(ckpt)) == (
        0, "", "warning: input is empty after preprocessing\n")


def test_predict_refuses_stdin_that_is_not_utf8(monkeypatch, capsys, tmp_path):
    """Standard input is decoded as strict UTF-8 whatever the locale: a bad
    byte is a data error naming its line, never a silently dropped character."""
    ckpt = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(ckpt)
    monkeypatch.setattr(sys, "stdin", _stdin(b"ugh\nso\xff dizzy\n"))
    assert run_cli(monkeypatch, capsys, "predict", "--checkpoint", str(ckpt)) == (
        EXIT_DATA, "", "error: <stdin>: line 2: not UTF-8 text (invalid start byte)\n")


def test_pretrain_with_every_tweet_held_out_has_no_accuracy(workspace, monkeypatch, capsys,
                                                            tmp_path):
    """Ids that all hash into the held-out bucket: pretraining trains on
    every tweet and reports no held-out accuracy."""
    ids = ["h10", "h18", "h23"]
    assert heldout_split(ids) == ([], [0, 1, 2])
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("".join(f"{i}\t{drug}\tugh <DRUG> dizzy\n"
                              for i, drug in zip(ids, ["effexor", "cymbalta", "seroquel"])))
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(_VOCAB)
    code, out, err = run_cli(monkeypatch, capsys, "pretrain", "--corpus", str(corpus),
                             "--vocab", str(vocab), "--embeddings", str(workspace / "emb.txt"),
                             "--lexicon", str(workspace / "drugs.txt"), "--hidden", "2",
                             "--epochs", "1", "--out", str(tmp_path / "x.ckpt"))
    assert (code, err) == (0, "")
    last = out.splitlines()[-1]
    assert last.startswith("pretrained 3 examples, 1 epochs;")
    assert last.endswith(", held-out accuracy n/a")


@pytest.mark.parametrize("content, ugh", [
    ("0 2\n", None),
    ("2 2\nugh 1_0 0.5\ndizzy 0.25 0.75\n", [10.0, 0.5]),
], ids=["no-rows", "python-float-syntax"])
def test_embeddings_that_load(workspace, monkeypatch, capsys, tmp_path, content, ugh):
    """A header with no rows gives every token a random row. A value that
    numpy's parser refuses but Python's float reads loads as the reference
    loader reads it."""
    emb = tmp_path / "emb.txt"
    emb.write_text(content)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(_VOCAB)
    ckpt = tmp_path / "x.ckpt"
    code, _, err = run_cli(monkeypatch, capsys, "train", "--labeled", str(workspace / "train.tsv"),
                           "--vocab", str(vocab), "--embeddings", str(emb), "--hidden", "2",
                           "--epochs", "0", "--out", str(ckpt))
    assert (code, err) == (0, "")
    row = load_checkpoint(ckpt).embeddings[_VOCAB.split().index("ugh")]
    if ugh is None:
        assert row.shape == (2,) and np.all(np.abs(row) <= 0.05)
    else:
        assert row.tolist() == ugh


def test_evaluate_matches_each_predicted_span_once(monkeypatch, capsys, tmp_path):
    """A tagger that tags every token I-ADR predicts one span over the tweet:
    it matches the first of the two gold spans inside it, not the second."""
    ckpt = tmp_path / "adr.ckpt"
    _save_tiny_checkpoint(ckpt)
    _rewrite_checkpoint(ckpt, _tags_every_token_adr)
    test = tmp_path / "test.tsv"
    test.write_text("ugh\tI-ADR\nso\tO\ndizzy\tI-ADR\n")
    code, out, err = run_cli(monkeypatch, capsys, "evaluate", "--checkpoint", str(ckpt),
                             "--test", str(test))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "1\t1.0000\t0.5000\t0.6667"


def test_each_checkpoint_is_one_trial(workspace, monkeypatch, capsys, tmp_path):
    """Each trial row of two checkpoints is that checkpoint's row evaluated
    alone, over the test file encoded by its own vocabulary; one checkpoint
    given twice is two equal trials, with std 0."""
    rng = np.random.default_rng(4)
    words = ["ugh", "feel", "so", "dizzy", "today", "bad"]
    for name, count in (("train.tsv", 40), ("test.tsv", 20)):  # "dizzy" alone is an ADR
        (tmp_path / name).write_text("\n".join(
            "".join(f"{w}\t{'I-ADR' if w == 'dizzy' else 'O'}\n" for w in rng.choice(words, 5))
            for _ in range(count)))
    a, b, vocab = tmp_path / "a.ckpt", tmp_path / "b.ckpt", tmp_path / "vocab.txt"
    run_cli(monkeypatch, capsys, "build-vocab", "--labeled", str(tmp_path / "train.tsv"),
            "--out", str(vocab))
    code, _, err = run_cli(monkeypatch, capsys, "train", "--labeled", str(tmp_path / "train.tsv"),
                           "--vocab", str(vocab), "--embeddings", str(workspace / "emb.txt"),
                           "--hidden", "3", "--epochs", "5", "--learning-rate", "0.05",
                           "--out", str(a))
    assert (code, err) == (0, "")
    _save_tiny_checkpoint(b)  # a 7-token vocabulary, unlike a's
    _rewrite_checkpoint(b, _tags_every_token_adr)

    def evaluate(*checkpoints):
        """The trial rows without their numbers, and the summary row."""
        code, out, err = run_cli(monkeypatch, capsys, "evaluate", "--test",
                                 str(tmp_path / "test.tsv"),
                                 *(f for c in checkpoints for f in ("--checkpoint", str(c))))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        return [line.split("\t", 1)[1] for line in lines[1:-1]], lines[-1]

    (row_a,), _ = evaluate(a)
    (row_b,), _ = evaluate(b)
    assert row_a != row_b
    assert evaluate(a, b)[0] == [row_a, row_b]
    assert evaluate(b, a)[0] == [row_b, row_a]
    rows, summary = evaluate(a, a)
    assert rows == [row_a, row_a]
    assert summary.count(" ± 0.0000") == 3


def test_init_checkpoint_may_be_the_output(workspace, monkeypatch, capsys, tmp_path):
    """Training over the checkpoint whose table it has mapped writes what
    training into another file writes: the rename replaces the file, not
    the bytes under the mapping."""
    ckpt, other = tmp_path / "m.ckpt", tmp_path / "other.ckpt"
    _save_tiny_checkpoint(ckpt)
    before = ckpt.read_bytes()
    outputs = []
    for out in (other, ckpt):
        code, _, err = run_cli(monkeypatch, capsys, "train",
                               "--labeled", str(workspace / "train.tsv"),
                               "--init-checkpoint", str(ckpt), "--out", str(out),
                               "--epochs", "1", "--seed", "0")
        assert (code, err) == (0, ""), err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] != before


def _mappings(path) -> int:
    """How many mappings of the file at ``path`` this process holds."""
    name = os.path.realpath(path)
    with open("/proc/self/maps") as fh:
        return sum(line.rstrip("\n").endswith(" " + name) for line in fh)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads this process's mappings from /proc/self/maps, which is Linux's")
def test_checkpoint_is_mapped_exactly_while_its_model_lives(workspace, monkeypatch, capsys,
                                                            tmp_path):
    """A loaded model holds one mapping of its file, which goes with the
    model; evaluate loads each checkpoint after the previous one's model is
    gone."""
    ckpt = tmp_path / "m.ckpt"
    _save_tiny_checkpoint(ckpt)
    model = load_checkpoint(ckpt)
    assert _mappings(ckpt) == 1
    del model
    assert _mappings(ckpt) == 0

    ckpts = [tmp_path / f"t{i}.ckpt" for i in range(3)]
    for path in ckpts:
        _save_tiny_checkpoint(path)
    held = []  # mappings of the three files before and after each load
    real = cli_module.training.load_checkpoint

    def load_counting(path, **kw):
        held.append(sum(map(_mappings, ckpts)))
        loaded = real(path, **kw)
        held.append(sum(map(_mappings, ckpts)))
        return loaded

    monkeypatch.setattr(cli_module.training, "load_checkpoint", load_counting)
    code, _, err = run_cli(monkeypatch, capsys, "evaluate",
                           *(a for path in ckpts for a in ("--checkpoint", str(path))),
                           "--test", str(workspace / "test.tsv"))
    assert (code, err) == (0, "")
    assert held == [0, 1] * 3
    assert sum(map(_mappings, ckpts)) == 0


def test_checkpoint_that_cannot_be_mapped_is_data_error(monkeypatch, capsys, tmp_path):
    """mmap's own error names no file; the loader's names the checkpoint."""
    path = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(path)

    def no_device(*args, **kw):
        raise OSError(errno.ENODEV, "No such device")

    monkeypatch.setattr(cli_module.training.mmap, "mmap", no_device)
    code, _, err = run_cli(monkeypatch, capsys, "predict", "--checkpoint", str(path),
                           "--text", "ugh")
    assert code == EXIT_DATA
    assert err == f"error: [Errno {errno.ENODEV}] No such device: '{path}'\n"


def test_interrupt_while_writing_leaves_no_file(workspace, monkeypatch, capsys, tmp_path):
    """Ctrl-C while the checkpoint is written ends the command as click's
    abort does (exit 1), leaving neither the checkpoint nor its temporary
    file."""
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module.training, "memoryview", interrupted, raising=False)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(_VOCAB)
    listing = sorted(p.name for p in tmp_path.iterdir())
    code, _, err = run_cli(monkeypatch, capsys, "train", "--labeled", str(workspace / "train.tsv"),
                           "--vocab", str(vocab), "--embeddings", str(workspace / "emb.txt"),
                           "--hidden", "2", "--epochs", "0", "--out", str(tmp_path / "x.ckpt"))
    assert code == EXIT_USAGE and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


def _exit_code_of(cls) -> int:
    """The exit code each error family ends `adr` with."""
    if issubclass(cls, (DataError, OSError)):
        return EXIT_DATA
    if issubclass(cls, NumericalError):
        return EXIT_NUMERICAL
    return EXIT_USAGE  # click's errors and any other ValueError


_TRAIN = "train --labeled {ws}/train.tsv --vocab {ws}/vocab.txt --embeddings {ws}/emb.txt"
_PRETRAIN = ("pretrain --corpus {ws}/corpus.tsv --vocab {ws}/vocab.txt --embeddings {ws}/emb.txt"
             " --lexicon {ws}/drugs.txt")
_PREPROCESS = "preprocess --input {ws}/raw.tsv --lexicon {ws}/drugs.txt"
_PREDICT = "predict --text ugh_so_dizzy --checkpoint"
# (name, command) of the two commands that load a checkpoint "{ws}/bad.ckpt"
_ON_BAD_CHECKPOINT = [("predict", _PREDICT + " {ws}/bad.ckpt"),
                      ("init-checkpoint",
                       "train --labeled {ws}/train.tsv --init-checkpoint {ws}/bad.ckpt")]


def _bytes(data: bytes):
    """A FAILURES file writer for content that is not UTF-8 text."""
    return lambda path: path.write_bytes(data)


def _edited_checkpoint(edit):
    """A FAILURES file writer: the workspace's model.ckpt, rewritten by
    ``edit`` (see _rewrite_checkpoint)."""
    def write(path):
        path.write_bytes((path.parent / "model.ckpt").read_bytes())
        _rewrite_checkpoint(path, edit)
    return write


# 2048 distinct rows fill two of the loader's blocks; the third block repeats w3.
_EMBEDDINGS_3_BLOCKS = "2049 1\n" + "".join(f"w{i} 0.5\n" for i in range(2048)) + "w3 0.5\n"


# Every documented failure: id -> (files to write into the workspace first,
# the command line, the error class it raises, texts its message must hold).
# "{ws}" is the workspace; "{ws}/out" is the output, which must not appear.
# Inputs without records, and corpus records without tokens, are the two
# tests above.
FAILURES = {
    "missing-required-flag": ({}, "train --out {ws}/out", click.UsageError, ["--labeled"]),
    "missing-input-file": ({}, "train --labeled {ws}/nope.tsv --out {ws}/out",
                           click.UsageError, ["nope.tsv"]),
    "setting-out-of-range": ({}, _TRAIN + " --max-len 0", ValueError, ["max_len"]),
    "learning-rate-not-finite": ({}, _PRETRAIN + " --learning-rate nan", ValueError,
                                 ["learning_rate"]),
    # numpy refuses the encoder's 4H x H arrays at once, so no memory is touched.
    **{f"hidden-{value}-of-{command}": ({}, f"{base} --hidden {value}", ValueError,
                                        [f"hidden {value} is too large: "])
       for command, base in (("pretrain", _PRETRAIN), ("train", _TRAIN))
       for value in ("100000000", "100000000000000000000")},
    **{f"config-is-no-option-of-{command}": (
        {"cfg.yaml": "hidden: 3\n"}, f"{base} --config {{ws}}/cfg.yaml", click.UsageError,
        ["No such option", "--config"])
       for command, base in (("pretrain", _PRETRAIN), ("train", _TRAIN))},
    **{f"{flag[2:]}-is-no-option-of-{command}": (
        {}, f"{command} {flag}", click.UsageError, ["No such option", flag])
       for command in ("pretrain", "train")
       for flag in ("--gate-biases", "--no-gate-biases", "--pooling")},
    **{f"{flag[2:]}-is-no-option-of-preprocess": (
        {}, f"{_PREPROCESS} {flag}", click.UsageError, ["No such option", flag])
       for flag in ("--drug-mask", "--no-drug-mask")},
    "init-checkpoint-missing": (
        {}, "train --labeled {ws}/train.tsv --init-checkpoint {ws}/missing.ckpt", OSError,
        ["missing.ckpt"]),
    "outputs-name-one-file": ({}, _TRAIN + " --log {ws}/out", click.UsageError,
                              ["--out and --log name one file"]),
    "trials-is-no-option": (
        {}, "evaluate --checkpoint {ws}/model.ckpt --test {ws}/test.tsv --trials 2"
        " --report {ws}/out", click.UsageError, ["No such option", "--trials"]),
    "vocab-cap-below-one": ({}, "build-vocab --labeled {ws}/train.tsv --cap 0 --out {ws}/out",
                            click.UsageError, ["--cap"]),
    "build-vocab-without-input": ({}, "build-vocab --out {ws}/out", click.UsageError,
                                  ["--labeled", "--unlabeled"]),
    "vocab-from-sentinels-only": ({"train.tsv": "!!!\tO\n<UNK>\tO\n"},
                                  "build-vocab --labeled {ws}/train.tsv --out {ws}/out",
                                  DataError, ["train.tsv: no token to keep"]),
    "output-under-a-regular-file": ({}, _PREPROCESS + " --out {ws}/raw.tsv/out", OSError,
                                    ["raw.tsv/out"]),
    "raw-line-without-tab": ({"raw.tsv": "t1\tugh\nno tab here\n"}, _PREPROCESS,
                             DataError, ["raw.tsv: line 2: expected 'id<TAB>text'"]),
    "raw-input-empty": ({"raw.tsv": ""}, _PREPROCESS, DataError, ["raw.tsv: no tweets found"]),
    "no-tweet-survives": ({"raw.tsv": "t1\tfeeling fine\n"}, _PREPROCESS, DataError,
                          ["no tweets survived preprocessing"]),
    "lexicon-too-short": ({"drugs.txt": "effexor\n"}, _PRETRAIN, DataError,
                          ["drugs.txt: drug lexicon must contain at least 2 names"]),
    "raw-not-utf8": ({"raw.tsv": _bytes(b"t1\tugh\nt2\tugh \xff dizzy\n")}, _PREPROCESS,
                     DataError, ["raw.tsv: line 2: not UTF-8"]),
    "lexicon-not-utf8": ({"drugs.txt": _bytes(b"effexor\ncymbalta\xe9\n")}, _PREPROCESS,
                         DataError, ["drugs.txt: line 2: not UTF-8"]),
    "stopwords-not-utf8": ({"stop.txt": _bytes(b"the\n\xfe\n")},
                           _PREPROCESS + " --stopwords {ws}/stop.txt", DataError,
                           ["stop.txt: line 2: not UTF-8"]),
    "corpus-not-utf8": ({"corpus.tsv": _bytes(b"t1\teffexor\tugh \xff <DRUG>\n")}, _PRETRAIN,
                        DataError, ["corpus.tsv: line 1: not UTF-8"]),
    "labeled-not-utf8": ({"train.tsv": _bytes(b"ugh\tO\ndizzy\xc3\tI-ADR\n")}, _TRAIN,
                         DataError, ["train.tsv: line 2: not UTF-8"]),
    "vocab-not-utf8": ({"vocab.txt": _bytes(_VOCAB.encode() + b"caf\xe9\n")}, _TRAIN,
                       DataError, ["vocab.txt: line 8: not UTF-8"]),
    "embeddings-not-utf8": ({"emb.txt": _bytes(b"1 2\nugh\x80 0.1 0.2\n")}, _TRAIN, DataError,
                            ["emb.txt: line 2: not UTF-8"]),
    "lexicon-duplicate-name": ({"drugs.txt": "effexor\nEffexor\n"}, _PREPROCESS, DataError,
                               ["drugs.txt: line 2: duplicate drug name"]),
    "lexicon-duplicate-once-normalized": (
        {"drugs.txt": "Co-Codamol\neffexor\ncocodamol\n"}, _PREPROCESS, DataError,
        ["drugs.txt: line 3: duplicate drug name 'cocodamol' (as line 1)"]),
    "lexicon-name-normalizes-to-no-token": (
        {"drugs.txt": "effexor\n!!!\n"}, _PREPROCESS, DataError,
        ["drugs.txt: line 2: drug name '!!!' normalizes to no token, so it can never match"]),
    "lexicon-name-normalizes-to-a-sentinel": (
        {"drugs.txt": "effexor\n@bob\n"}, _PREPROCESS, DataError,
        ["drugs.txt: line 2: drug name '@bob' normalizes to the sentinel <USER>"]),
    "vocab-token-with-space": ({"vocab.txt": _VOCAB + "u h\n"}, _TRAIN, DataError,
                               ["vocab.txt: line 8: token 'u h' is empty or holds whitespace"]),
    "vocab-blank-token": ({"vocab.txt": _VOCAB + "   \n"}, _TRAIN, DataError,
                          ["vocab.txt: line 8: token '   ' is empty or holds whitespace"]),
    "lexicon-name-with-space": ({"drugs.txt": "effexor\neff xor\n"}, _PREPROCESS, DataError,
                                ["drugs.txt: line 2: drug name 'eff xor' holds whitespace"]),
    "stopword-with-space": ({"stop.txt": "the\nso what\n"},
                            _PREPROCESS + " --stopwords {ws}/stop.txt", DataError,
                            ["stop.txt: line 2: stopword 'so what' holds whitespace"]),
    "stopword-normalizes-to-no-token": (
        {"stop.txt": "the\n!!!\n"}, _PREPROCESS + " --stopwords {ws}/stop.txt", DataError,
        ["stop.txt: line 2: stopword '!!!' normalizes to no token, so it can never be removed"]),
    "stopword-normalizes-to-a-sentinel": (
        {"stop.txt": "the\nhttp://x\n"}, _PREPROCESS + " --stopwords {ws}/stop.txt", DataError,
        ["stop.txt: line 2: stopword 'http://x' normalizes to the sentinel <LINK>"]),
    "vocab-duplicate-token": ({"vocab.txt": _VOCAB + "ugh\n"}, _TRAIN, DataError,
                              ["vocab.txt: line 8: duplicate token 'ugh'"]),
    "vocab-missing-sentinel": ({"vocab.txt": "<PAD>\n<UNK>\n"}, _TRAIN, DataError,
                               ["vocab.txt: end of file: missing sentinel '<LINK>'"]),
    "vocab-wrong-sentinel": ({"vocab.txt": "<PAD>\n<UNK>\n<USER>\n<LINK>\n<DRUG>\n"}, _TRAIN,
                             DataError,
                             ["vocab.txt: line 3: expected sentinel '<LINK>', got '<USER>'"]),
    "embeddings-header": ({"emb.txt": "x y\n"}, _TRAIN, DataError,
                          ["emb.txt: header must be two integers"]),
    "embeddings-header-sizes": ({"emb.txt": "1 0\nugh\n"}, _TRAIN, DataError,
                                ["emb.txt: header 'V D' needs V >= 0 and D >= 1"]),
    "embeddings-blank-line": ({"emb.txt": "2 1\nugh 0.1\n\n"}, _TRAIN, DataError,
                              ["emb.txt: line 3: expected 1 values, got 0"]),
    "embeddings-separator-in-value": ({"emb.txt": "1 2\nugh 0.1\x1c 0.2\n"}, _TRAIN, DataError,
                                      ["emb.txt: line 2: bad float"]),
    "embeddings-row-width": ({"emb.txt": "1 3\nugh 0.1 0.2\n"}, _TRAIN, DataError,
                             ["emb.txt: line 2: expected 3 values, got 2"]),
    "embeddings-bad-float": ({"emb.txt": "1 2\nugh 0.1 x\n"}, _TRAIN, DataError,
                             ["emb.txt: line 2: bad float"]),
    "embeddings-non-finite": ({"emb.txt": "1 2\nugh 0.1 nan\n"}, _TRAIN, DataError,
                              ["emb.txt: line 2: non-finite value"]),
    "embeddings-duplicate-token": ({"emb.txt": "2 1\nugh 0.1\nugh 0.2\n"}, _TRAIN, DataError,
                                   ["emb.txt: line 3: duplicate token 'ugh'"]),
    "embeddings-duplicate-token-across-blocks": ({"emb.txt": _EMBEDDINGS_3_BLOCKS}, _TRAIN,
                                                 DataError,
                                                 ["emb.txt: line 2050: duplicate token 'w3'"]),
    "embeddings-row-count": ({"emb.txt": "3 1\nugh 0.1\n"}, _TRAIN, DataError,
                             ["emb.txt: header says 3 rows, file has 1"]),
    "labeled-unknown-tag": ({"train.tsv": "ugh\tO\ndizzy\tB-ADR\n"}, _TRAIN, DataError,
                            ["train.tsv: line 2: unknown tag 'B-ADR'"]),
    "labeled-line-without-tab": ({"train.tsv": "ugh\n"}, _TRAIN, DataError,
                                 ["train.tsv: line 1: expected 'token<TAB>tag'"]),
    "labeled-token-with-space": ({"train.tsv": "ugh\tO\nfoo bar\tO\n"}, _TRAIN, DataError,
                                 ["train.tsv: line 2: token 'foo bar' is empty or holds "
                                  "whitespace"]),
    "labeled-empty-token": ({"train.tsv": "ugh\tO\n\tI-ADR\n"}, _TRAIN, DataError,
                            ["train.tsv: line 2: token '' is empty or holds whitespace"]),
    "corpus-line-without-tokens-field": ({"corpus.tsv": "t1\teffexor\n"}, _PRETRAIN, DataError,
                                         ["corpus.tsv: line 1: expected 'id<TAB>drug<TAB>"]),
    "corpus-unknown-drug": ({"corpus.tsv": "t1\taspirin\tugh <DRUG>\n"}, _PRETRAIN, DataError,
                            ["corpus.tsv: unknown drug name 'aspirin'"]),
    "checkpoint-missing": ({}, _PREDICT + " {ws}/missing.ckpt", OSError, ["missing.ckpt"]),
    "checkpoint-not-a-checkpoint": ({"bad.ckpt": "hello"}, _PREDICT + " {ws}/bad.ckpt",
                                    CheckpointError, ["bad.ckpt: not a checkpoint file"]),
    "checkpoint-truncated": ({"bad.ckpt": lambda p: p.write_bytes(
                                  (p.parent / "model.ckpt").read_bytes()[:-5])},
                             _PREDICT + " {ws}/bad.ckpt", CheckpointError, ["bad.ckpt: "]),
    "checkpoint-without-vocabulary": ({"bad.ckpt": lambda p: _save_tiny_checkpoint(p, False)},
                                      _PREDICT + " {ws}/bad.ckpt", CheckpointError,
                                      ["bad.ckpt: checkpoint carries no vocabulary"]),
    "checkpoint-header-truncated": (
        {"bad.ckpt": _bytes(CHECKPOINT_MAGIC + (100).to_bytes(8, "little") + b"{}")},
        _PREDICT + " {ws}/bad.ckpt", CheckpointError, ["bad.ckpt: truncated header"]),
    "checkpoint-header-not-json": (
        {"bad.ckpt": _bytes(CHECKPOINT_MAGIC + (2).to_bytes(8, "little") + b"{x")},
        _PREDICT + " {ws}/bad.ckpt", CheckpointError, ["bad.ckpt: corrupt header"]),
    "checkpoint-header-not-a-mapping": (
        {"bad.ckpt": _bytes(CHECKPOINT_MAGIC + (2).to_bytes(8, "little") + b"[]")},
        _PREDICT + " {ws}/bad.ckpt", CheckpointError, ["bad.ckpt: corrupt header"]),
    "checkpoint-version-2": ({"bad.ckpt": _edited_checkpoint(lambda h, a: h.update(version=2))},
                             _PREDICT + " {ws}/bad.ckpt", CheckpointError,
                             ["bad.ckpt: unsupported version 2"]),
    # The architecture's two constants: every direction has its gate biases,
    # and the drug head mean-pools.
    **{f"checkpoint-{case}-{name}": (
        {"bad.ckpt": _edited_checkpoint(edit)}, command, CheckpointError,
        [f"bad.ckpt: header field {field!r} is missing or malformed"])
       for case, field, edit in [("without-gate-biases", "gate_biases", _without_gate_biases),
                                 ("sum-pooling", "pooling",
                                  lambda h, a: h.update(pooling="sum"))]
       for name, command in _ON_BAD_CHECKPOINT},
    **{f"checkpoint-drug-names-{case}-{name}": (
        {"bad.ckpt": _edited_checkpoint(lambda h, a, names=names: h.update(drug_names=names))},
        command, CheckpointError,
        ["bad.ckpt: header field 'drug_names' must hold drug_count (2) distinct names, "
         f"not {held}"])
       for case, names, held in [("too-many", ["a", "b", "c"], "3 of 3"),
                                 ("repeated", ["a", "a"], "1 of 2"),
                                 ("too-few", ["a"], "1 of 1")]
       for name, command in _ON_BAD_CHECKPOINT},
    "checkpoint-no-hidden-units": ({"bad.ckpt": _edited_checkpoint(_no_hidden_units)},
                                   _PREDICT + " {ws}/bad.ckpt", CheckpointError,
                                   ["bad.ckpt: hidden must be >= 1"]),
    "checkpoint-one-drug": ({"bad.ckpt": _edited_checkpoint(_one_drug)},
                            _PREDICT + " {ws}/bad.ckpt", CheckpointError,
                            ["bad.ckpt: drug catalog must contain at least 2 names"]),
    "checkpoint-array-list-mismatch": (
        {"bad.ckpt": _edited_checkpoint(lambda h, a: h["arrays"][-1].update(name="tag.x"))},
        _PREDICT + " {ws}/bad.ckpt", CheckpointError,
        ["bad.ckpt: file array ('tag.x', (4,)) != model array ('tag.b', (4,))"]),
    "checkpoint-non-finite-array": (
        {"bad.ckpt": _edited_checkpoint(lambda h, a: a["tag.b"].__setitem__(0, np.nan))},
        _PREDICT + " {ws}/bad.ckpt", CheckpointError, ["bad.ckpt: non-finite value in tag.b"]),
    "checkpoint-non-finite-embeddings": (
        {"bad.ckpt": _edited_checkpoint(lambda h, a: a["embeddings"].__setitem__((6, 2), np.inf))},
        _PREDICT + " {ws}/bad.ckpt", CheckpointError,
        ["bad.ckpt: non-finite value in embeddings"]),
    "checkpoint-vocabulary-token-with-space": (
        {"bad.ckpt": _edited_checkpoint(lambda h, a: h["vocab_tokens"].__setitem__(6, "diz zy"))},
        _PREDICT + " {ws}/bad.ckpt", CheckpointError,
        ["bad.ckpt: vocab_tokens: entry 7: token 'diz zy' is empty or holds whitespace"]),
    "checkpoint-vocabulary-token-not-a-string": (
        {"bad.ckpt": _edited_checkpoint(lambda h, a: h["vocab_tokens"].__setitem__(6, 7))},
        _PREDICT + " {ws}/bad.ckpt", CheckpointError,
        ["bad.ckpt: header field 'vocab_tokens' is missing or malformed"]),
    "checkpoint-hidden-mismatch": (
        {}, "train --labeled {ws}/train.tsv --init-checkpoint {ws}/model.ckpt --hidden 3",
        click.UsageError, ["hidden: 3 given, but --init-checkpoint", "model.ckpt has 2"]),
    "overflow-in-predict": ({"huge.ckpt": _huge_embeddings_checkpoint},
                            _PREDICT + " {ws}/huge.ckpt", NumericalError,
                            ["huge.ckpt: encoder forward overflowed"]),
    "overflow-in-training": ({"emb.txt": "2 2\nugh 1.7e308 1.7e308\ndizzy 1.7e308 -1.7e308\n"},
                             _TRAIN + " --hidden 2 --epochs 1", NumericalError,
                             ["supervised epoch 0", "on the batch of tweets sent-"]),
    # Only the held-out tweet t9 reads the huge row.
    "overflow-in-held-out-pass": (
        {"corpus.tsv": "t1\teffexor\tugh <DRUG>\nt9\teffexor\tdizzy <DRUG>\n",
         "emb.txt": "2 2\nugh 0.1 0.2\ndizzy 1.7e308 1.7e308\n"},
        _PRETRAIN + " --hidden 2 --epochs 1", NumericalError,
        ["pretrain epoch 0, held-out pass: encoder forward overflowed", "t9"]),
    "update-overflow-in-training": (
        {}, "train --labeled {ws}/train.tsv --init-checkpoint {ws}/model.ckpt --epochs 1"
        " --batch-size 100 --learning-rate 1e308", NumericalError,
        ["supervised epoch 0", "update of parameter", "overflowed",
         "on the batch of tweets sent-"]),
    "gradient-overflow-in-training": (
        {"huge.ckpt": _edited_checkpoint(_huge_tag_head)},
        "train --labeled {ws}/train.tsv --init-checkpoint {ws}/huge.ckpt --epochs 1",
        NumericalError, ["supervised epoch 0", "non-finite gradient for parameter fwd.w",
                         "on the batch of tweets sent-"]),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_every_documented_failure_exits_by_its_error_class(workspace, monkeypatch, capsys,
                                                           case):
    """Each documented failure raises its error class, which alone decides the
    exit code; its message, the one line on stderr, names the file, line,
    record or flag; there is no traceback and no output file."""
    (workspace / "vocab.txt").write_text(_VOCAB)
    (workspace / "corpus.tsv").write_text("t1\teffexor\tugh <DRUG> dizzy\n")
    _save_tiny_checkpoint(workspace / "model.ckpt")
    files, command, error, needles = FAILURES[case]
    for name, content in files.items():
        if callable(content):
            content(workspace / name)
        else:
            (workspace / name).write_text(content)
    argv = command.format(ws=workspace).split()
    if "--out" not in argv and argv[0] in ("train", "pretrain", "preprocess"):
        argv += ["--out", f"{workspace}/out"]
    with pytest.raises(error):
        cli_module.cli.main(argv, standalone_mode=False)
    code, out, err = run_cli(monkeypatch, capsys, *argv)
    assert code == _exit_code_of(error), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(needle in err for needle in needles), err
    assert "Traceback" not in err
    assert not (workspace / "out").exists()


_OOM = "Unable to allocate 2.11 GiB for an array with shape (70935, 2, 2000) and data type float64"
_TRAINING_OUTPUTS = " --hidden 2 --epochs 1 --out {ws}/out --log {ws}/log"
# case -> (the module and name of the call that runs out of memory, the command
# line, texts its one error line must hold). The call is patched to raise, so no
# memory is allocated.
OUT_OF_MEMORY = {
    "preprocess": ((text_module, "mask_drug"), _PREPROCESS + " --out {ws}/out", []),
    "build-vocab": ((text_module.Vocabulary, "build"),
                    "build-vocab --labeled {ws}/train.tsv --out {ws}/out", []),
    "pretrain-phase": ((training_module, "pretrain"),
                       _PRETRAIN + " --batch-size 4096" + _TRAINING_OUTPUTS,
                       ["; a step is sized by --batch-size 4096, --max-len ", " and --hidden 2"]),
    "pretrain-embeddings": ((text_module, "load_embeddings"), _PRETRAIN + _TRAINING_OUTPUTS, []),
    "train-phase": ((training_module, "train_supervised"),
                    _TRAIN + " --max-len 9" + _TRAINING_OUTPUTS,
                    ["; a step is sized by --batch-size ", ", --max-len 9 and --hidden 2"]),
    "evaluate": ((evaluation_module, "evaluate_tagging"),
                 "evaluate --checkpoint {ws}/model.ckpt --test {ws}/test.tsv --report {ws}/out",
                 []),
    "predict": ((AdrModel, "predict_tags"), "predict --checkpoint {ws}/model.ckpt",
                ["; the text has 3 tokens and ", "model.ckpt has hidden 2"]),
    "gradcheck": ((cli_module, "gradient_check"), "gradcheck --seeds 1", []),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_MEMORY))
def test_out_of_memory_is_one_error_line(workspace, monkeypatch, capsys, case):
    """Running out of memory in any command is exit 1 with one line holding
    numpy's message, and the names of the settings that size the failed
    work where there are some; no traceback, no output and no temporary file."""
    (workspace / "vocab.txt").write_text(_VOCAB)
    (workspace / "corpus.tsv").write_text("t1\teffexor\tugh <DRUG> dizzy\n")
    _save_tiny_checkpoint(workspace / "model.ckpt")
    (owner, name), command, needles = OUT_OF_MEMORY[case]

    def allocate(*args, **kwargs):
        raise MemoryError(_OOM)

    monkeypatch.setattr(owner, name, allocate)
    monkeypatch.setattr(sys, "stdin", _stdin(b"ugh so dizzy\n"))  # predict's text
    listing = sorted(p.name for p in workspace.iterdir())
    code, _, err = run_cli(monkeypatch, capsys, *command.format(ws=workspace).split())
    assert code == EXIT_USAGE, err
    assert err.startswith(f"error: out of memory: {_OOM}") and err.count("\n") == 1, err
    assert all(needle in err for needle in needles), err
    assert "Traceback" not in err
    assert sorted(p.name for p in workspace.iterdir()) == listing


_PROPERTY = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _damaged(blob: bytes, damage) -> bytes:
    """``blob`` cut at a drawn byte, or with a drawn byte set to a drawn value."""
    offset = damage.draw(st.integers(0, len(blob) - 1), label="offset")
    byte = damage.draw(st.none() | st.integers(0, 255), label="new byte (None: cut)")
    return blob[:offset] if byte is None else blob[:offset] + bytes([byte]) + blob[offset + 1:]


@_PROPERTY
@given(damage=st.data())
def test_damaged_checkpoint_never_ends_in_a_traceback(monkeypatch, capsys, tmp_path, damage):
    """A checkpoint cut at any byte, or with any one byte changed, is read
    and used, or refused naming it: exit 2 for the file, or 3 when a changed
    weight is finite but so large that the forward overflows."""
    path = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(path)
    path.write_bytes(_damaged(path.read_bytes(), damage))
    code, _, err = run_cli(monkeypatch, capsys, "predict", "--checkpoint", str(path),
                           "--text", "ugh so dizzy")
    assert code in (0, EXIT_DATA, EXIT_NUMERICAL), err
    assert code == 0 or err.startswith(f"error: {path}: "), err


@_PROPERTY
@given(damage=st.data())
def test_truncated_embeddings_never_end_in_a_traceback(workspace, monkeypatch, capsys,
                                                       tmp_path, damage):
    """An embeddings file cut at any byte trains, or is refused with exit 2
    naming it and no checkpoint written."""
    blob = (workspace / "emb.txt").read_bytes()
    emb = tmp_path / "cut.txt"
    emb.write_bytes(blob[: damage.draw(st.integers(0, len(blob)), label="cut")])
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(_VOCAB)
    ckpt = tmp_path / "out.ckpt"
    ckpt.unlink(missing_ok=True)
    code, _, err = run_cli(monkeypatch, capsys, "train", "--labeled", str(workspace / "train.tsv"),
                           "--vocab", str(vocab), "--embeddings", str(emb), "--hidden", "2",
                           "--epochs", "0", "--out", str(ckpt))
    assert code in (0, EXIT_DATA), err
    assert ckpt.exists() == (code == 0)
    assert code == 0 or err.startswith(f"error: {emb}: "), err


# A text input of the workspace -> the command line that reads it as "{damaged}".
DAMAGED_TEXT_RUNS = {
    "vocab.txt": "train --labeled {ws}/train.tsv --vocab {damaged} --embeddings {ws}/emb.txt"
                 " --hidden 2 --epochs 0",
    "drugs.txt": "preprocess --input {ws}/raw.tsv --lexicon {damaged}",
    "train.tsv": "build-vocab --labeled {damaged}",
}


@pytest.mark.parametrize("name", sorted(DAMAGED_TEXT_RUNS))
@_PROPERTY
@given(damage=st.data())
def test_damaged_text_input_never_ends_in_a_traceback(workspace, monkeypatch, capsys, name,
                                                      damage):
    """A vocabulary, drug lexicon or CoNLL file cut at any byte, or with any
    one byte changed, is used, or refused with exit 2 naming it and no
    output written."""
    (workspace / "vocab.txt").write_text(_VOCAB)
    damaged = workspace / f"damaged-{name}"
    damaged.write_bytes(_damaged((workspace / name).read_bytes(), damage))
    out = workspace / "out"
    out.unlink(missing_ok=True)
    argv = DAMAGED_TEXT_RUNS[name].format(ws=workspace, damaged=damaged).split()
    code, _, err = run_cli(monkeypatch, capsys, *argv, "--out", str(out))
    assert code in (0, EXIT_DATA), err
    assert out.exists() == (code == 0)
    assert code == 0 or (err.startswith("error: ") and str(damaged) in err), err


# The corpus commands read their input in one pass and keep none of it as
# token lists: `preprocess` writes each kept tweet as it reads it,
# `build-vocab` counts each record's tokens, and `pretrain` keeps only each
# record's ids, drug label and tweet id.

_CORPUS_WORDS = [f"w{i}" for i in range(300)]


def _write_corpus(path, records, tokens=20):
    """``records`` lines as `preprocess` writes them, each ``tokens`` words
    drawn from ``_CORPUS_WORDS``."""
    rng = np.random.default_rng(0)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(records):
            words = " ".join(_CORPUS_WORDS[j] for j in rng.integers(0, 300, tokens))
            fh.write(f"t{i}\teffexor\t{words}\n")


def _traced_peak(monkeypatch, capsys, *argv) -> int:
    """The peak bytes Python allocates while `adr` runs ``argv``, which must succeed."""
    tracemalloc.start()
    try:
        code, _, err = run_cli(monkeypatch, capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    return peak


def test_pretrain_keeps_a_corpus_token_as_its_id(workspace, monkeypatch, capsys, tmp_path):
    """What one more corpus token costs `pretrain --epochs 0` at its peak:
    its id's slot in the record's id list, plus the record's share of its
    tuple, list and tweet id: 18 B at 20 tokens a record. Keeping each token's
    string as well, as a list of token lists does, costs 87 B. The bound,
    40 B, sits at about twice the first and under half the second."""
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(["<PAD>", "<UNK>", "<LINK>", "<USER>", "<DRUG>",
                                *_CORPUS_WORDS]) + "\n")
    emb = tmp_path / "emb.txt"
    emb.write_text("2 2\nw0 0.1 0.2\nw1 -0.1 0.3\n")
    peaks = {}
    for records in (1000, 3000):
        corpus = tmp_path / f"corpus{records}.tsv"
        _write_corpus(corpus, records)
        peaks[records] = _traced_peak(
            monkeypatch, capsys, "pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
            "--embeddings", str(emb), "--lexicon", str(workspace / "drugs.txt"),
            "--hidden", "2", "--epochs", "0", "--out", str(tmp_path / "out.ckpt"))
    per_token = (peaks[3000] - peaks[1000]) / (2000 * 20)
    assert per_token < 40, f"{per_token:.1f} B a corpus token"


def test_build_vocab_peak_does_not_grow_with_the_corpus(monkeypatch, capsys, tmp_path):
    """Ten times the records over the same 300 words leaves the peak within
    64 KB; keeping the records as token lists adds 2.5 MB."""
    peaks = []
    for records in (200, 2000):
        corpus = tmp_path / f"corpus{records}.tsv"
        _write_corpus(corpus, records)
        peaks.append(_traced_peak(monkeypatch, capsys, "build-vocab", "--unlabeled",
                                  str(corpus), "--out", str(tmp_path / "vocab.txt")))
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


def test_preprocess_may_write_over_its_input(workspace, monkeypatch, capsys, tmp_path):
    """With --out equal to --input the input is read to its end before the
    output replaces it, so the result is what a separate output receives."""
    raw = tmp_path / "raw-copy.tsv"
    raw.write_bytes((workspace / "raw.tsv").read_bytes())
    outputs = []
    for src, out in ((workspace / "raw.tsv", tmp_path / "separate.tsv"), (raw, raw)):
        code, stdout, err = run_cli(monkeypatch, capsys, "preprocess", "--input", str(src),
                                    "--lexicon", str(workspace / "drugs.txt"), "--out", str(out))
        assert code == 0, err
        outputs.append((stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert not [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]


# A corpus command -> (a good line of its input, the bad line 30, its command
# line reading that input as "{bad}").
_RECORD = "{}\teffexor\tugh <DRUG> dizzy"
BAD_MIDDLE_LINE_RUNS = {
    "preprocess": ("{}\tugh effexor", "t29 no tab here",
                   "preprocess --input {bad} --lexicon {ws}/drugs.txt"),
    "build-vocab": (_RECORD, "t29\teffexor", "build-vocab --unlabeled {bad}"),
    "pretrain": (_RECORD, "t29\teffexor", "pretrain --corpus {bad} --vocab {ws}/vocab.txt"
                 " --embeddings {ws}/emb.txt --lexicon {ws}/drugs.txt --hidden 2 --epochs 0"),
}


@pytest.mark.parametrize("command", sorted(BAD_MIDDLE_LINE_RUNS))
def test_bad_line_in_the_middle_of_a_corpus_is_data_error(workspace, monkeypatch, capsys,
                                                          command):
    """A line read after 29 good ones is refused with exit 2 naming it, and
    the command leaves neither its output nor the output's temporary file."""
    (workspace / "vocab.txt").write_text(_VOCAB)
    good, bad_line, run = BAD_MIDDLE_LINE_RUNS[command]
    lines = [good.format(f"t{i}") for i in range(60)]
    lines[29] = bad_line
    bad = workspace / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n")
    listing = sorted(p.name for p in workspace.iterdir())
    argv = run.format(ws=workspace, bad=bad).split()
    code, _, err = run_cli(monkeypatch, capsys, *argv, "--out", str(workspace / "out"))
    assert code == EXIT_DATA, err
    assert f"error: {bad}: line 30: " in err and "Traceback" not in err
    assert sorted(p.name for p in workspace.iterdir()) == listing
