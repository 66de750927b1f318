import json
import sys

import numpy as np
import pytest

from adrtag import cli as cli_module
from adrtag.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_USAGE, main
from adrtag.model import AdrModel
from adrtag.training import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint


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

    def test_no_mask_keeps_drug_token(self, workspace, monkeypatch, capsys, tmp_path):
        masked = tmp_path / "masked.tsv"
        unmasked = tmp_path / "unmasked.tsv"
        run_cli(monkeypatch, capsys, "preprocess", "--input", str(workspace / "raw.tsv"),
                "--lexicon", str(workspace / "drugs.txt"), "--out", str(masked))
        run_cli(monkeypatch, capsys, "preprocess", "--input", str(workspace / "raw.tsv"),
                "--lexicon", str(workspace / "drugs.txt"), "--out", str(unmasked),
                "--no-drug-mask")
        assert "<DRUG>" in masked.read_text()
        assert "<DRUG>" not in unmasked.read_text()
        assert "effexor" in unmasked.read_text()


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
        vocab = tmp_path / "vocab.txt"
        ckpt = tmp_path / "fresh.ckpt"
        run_cli(monkeypatch, capsys, "build-vocab",
                "--labeled", str(workspace / "train.tsv"),
                "--cap", "100", "--out", str(vocab))
        run_cli(monkeypatch, capsys, "train",
                "--labeled", str(workspace / "train.tsv"),
                "--vocab", str(vocab), "--embeddings", str(workspace / "emb.txt"),
                "--hidden", "5", "--epochs", "0", "--max-len", "12",
                "--out", str(ckpt))
        code, out, _ = run_cli(monkeypatch, capsys, "evaluate",
                               "--checkpoint", str(ckpt),
                               "--test", str(workspace / "test.tsv"),
                               "--trials", "3", "--labeled", str(workspace / "train.tsv"),
                               "--epochs", "1", "--max-len", "12",
                               "--report", str(tmp_path / "report.txt"))
        assert code == 0
        assert len(out.strip().splitlines()) == 5  # header + 3 trials + summary
        assert (tmp_path / "report.txt").exists()

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

    def test_vocab_source_flag_changes_only_vocabulary(self, workspace, monkeypatch,
                                                       capsys, tmp_path):
        processed = tmp_path / "p.tsv"
        run_cli(monkeypatch, capsys, "preprocess", "--input", str(workspace / "raw.tsv"),
                "--lexicon", str(workspace / "drugs.txt"), "--out", str(processed))
        both = tmp_path / "both.txt"
        labeled_only = tmp_path / "labeled.txt"
        run_cli(monkeypatch, capsys, "build-vocab", "--unlabeled", str(processed),
                "--labeled", str(workspace / "train.tsv"), "--cap", "100",
                "--out", str(both))
        run_cli(monkeypatch, capsys, "build-vocab", "--unlabeled", str(processed),
                "--labeled", str(workspace / "train.tsv"), "--cap", "100",
                "--source", "labeled_only", "--out", str(labeled_only))
        v_both = set(both.read_text().split())
        v_labeled = set(labeled_only.read_text().split())
        assert v_labeled < v_both  # masked-corpus-only words are missing

    def test_checkpoint_dir_env_var(self, workspace, monkeypatch, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        monkeypatch.setenv("ADR_CHECKPOINT_DIR", str(ckpt_dir))
        vocab = tmp_path / "v.txt"
        run_cli(monkeypatch, capsys, "build-vocab",
                "--labeled", str(workspace / "train.tsv"), "--cap", "50",
                "--out", str(vocab))
        code, _, _ = run_cli(monkeypatch, capsys, "train",
                             "--labeled", str(workspace / "train.tsv"),
                             "--vocab", str(vocab),
                             "--embeddings", str(workspace / "emb.txt"),
                             "--hidden", "4", "--epochs", "0", "--max-len", "12",
                             "--out", "rel.ckpt")
        assert code == 0
        assert (ckpt_dir / "rel.ckpt").exists()


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

    def test_evaluate_trials_require_labeled(self, workspace, monkeypatch, capsys,
                                             tmp_path):
        code, _, _ = run_cli(monkeypatch, capsys, "evaluate",
                             "--checkpoint", str(tmp_path / "none.ckpt"),
                             "--test", str(workspace / "test.tsv"),
                             "--trials", "2")
        assert code == EXIT_USAGE


def _save_tiny_checkpoint(path, vocabulary=True):
    """A hidden=2, mean-pooled, gate-biased model over a 7-token vocabulary."""
    tokens = ["<PAD>", "<UNK>", "<LINK>", "<USER>", "<DRUG>", "ugh", "dizzy"]
    model = AdrModel(np.random.default_rng(0).normal(size=(len(tokens), 3)),
                     hidden=2, drug_count=2, seed=0,
                     vocab_tokens=tokens if vocabulary else None, drug_names=["a", "b"])
    save_checkpoint(model, path)


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


def _rewrite_header(path, edit):
    """Apply ``edit`` to the checkpoint's JSON header in place; arrays untouched."""
    data = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(data[len(CHECKPOINT_MAGIC) : start], "little")
    header = json.loads(data[start:end])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob + data[end:])


def test_vocabulary_longer_than_embeddings_is_data_error(monkeypatch, capsys, tmp_path):
    path = tmp_path / "model.ckpt"
    _save_tiny_checkpoint(path)
    _rewrite_header(path, lambda header: header["vocab_tokens"].extend(["so", "here", "words"]))

    code, _, err = run_cli(monkeypatch, capsys, "predict",
                           "--checkpoint", str(path), "--text", "ugh here words")
    assert code == EXIT_DATA
    assert "model.ckpt: header implies embeddings of shape (10, 3)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_unknown_config_key_is_usage_error(workspace, monkeypatch, capsys, tmp_path,
                                           command):
    config = tmp_path / "cfg.yaml"
    config.write_text("epochs: 1\nhiden: 50\n")
    inputs = {
        "pretrain": ["--corpus", str(workspace / "raw.tsv"),
                     "--lexicon", str(workspace / "drugs.txt")],
        "train": ["--labeled", str(workspace / "train.tsv")],
    }[command]
    vocab = tmp_path / "v.txt"
    vocab.write_text("<PAD>\n<UNK>\n<LINK>\n<USER>\n<DRUG>\nugh\n")
    code, _, err = run_cli(monkeypatch, capsys, command, "--config", str(config),
                           *inputs, "--vocab", str(vocab),
                           "--embeddings", str(workspace / "emb.txt"),
                           "--out", str(tmp_path / "x.ckpt"))
    assert code == EXIT_USAGE
    assert "cfg.yaml" in err and "hiden" in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize(
    "flags", [["--pooling", "mean"], ["--gate-biases"], ["--no-gate-biases"],
              ["--vocab", "vocab.txt"], ["--embeddings", "emb.txt"]],
    ids=["pooling", "gate-biases", "no-gate-biases", "vocab", "embeddings"],
)
def test_init_checkpoint_rejects_architecture_flags(workspace, monkeypatch, capsys,
                                                    tmp_path, flags):
    """The checkpoint fixes the architecture, the vocabulary and the embeddings."""
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


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_overflow_in_inference_is_numerical_error(workspace, monkeypatch, capsys, tmp_path,
                                                  command):
    """Finite but huge embedding rows overflow the encoder: exit 3 naming the
    checkpoint, no traceback, no tags and no report."""
    ckpt = tmp_path / "huge.ckpt"
    tokens = ["<PAD>", "<UNK>", "<LINK>", "<USER>", "<DRUG>", "ugh", "dizzy"]
    embeddings = np.full((len(tokens), 3), 1.7e308)
    embeddings[0] = 0.0
    model = AdrModel(embeddings, hidden=2, drug_count=2, seed=0, vocab_tokens=tokens,
                     drug_names=["a", "b"])
    model.encoder.forward_cell.i.value[...] = 1.0
    save_checkpoint(model, ckpt)
    report = tmp_path / "report.txt"
    args = {
        "predict": ["--checkpoint", str(ckpt), "--text", "ugh so dizzy"],
        "evaluate": ["--checkpoint", str(ckpt), "--test", str(workspace / "test.tsv"),
                     "--report", str(report)],
    }[command]
    code, out, err = run_cli(monkeypatch, capsys, command, *args)
    assert code == EXIT_NUMERICAL, err
    assert f"{ckpt}: encoder forward overflowed" in err
    assert "Traceback" not in err and out == ""
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


@pytest.mark.parametrize("hidden, expected", [(2, 0), (3, EXIT_DATA)])
def test_init_checkpoint_checks_config_hidden(workspace, monkeypatch, capsys, tmp_path,
                                              hidden, expected):
    """Config values stay allowed with --init-checkpoint (the file may be
    shared with pretrain), but a config hidden size must match."""
    ckpt = tmp_path / "init.ckpt"
    _save_tiny_checkpoint(ckpt)
    config = tmp_path / "cfg.yaml"
    config.write_text(f"hidden: {hidden}\npooling: sum\ngate_biases: false\n")
    code, _, err = run_cli(monkeypatch, capsys, "train", "--config", str(config),
                           "--labeled", str(workspace / "train.tsv"),
                           "--init-checkpoint", str(ckpt),
                           "--epochs", "0", "--out", str(tmp_path / "x.ckpt"))
    assert code == expected, err
    if expected:
        assert "hidden size 2 != expected 3" in err


class TestGradcheckCommand:
    def test_passes_quickly(self, monkeypatch, capsys):
        code, out, _ = run_cli(monkeypatch, capsys, "gradcheck", "--seeds", "1",
                               "--emb", "3", "--hidden", "3", "--timesteps", "3")
        assert code == 0
        assert "all gradients match" in out

    def test_zero_epsilon_is_usage_error(self, monkeypatch, capsys):
        code, _, _ = run_cli(monkeypatch, capsys, "gradcheck", "--epsilon", "0")
        assert code == EXIT_USAGE

    def test_injected_sign_error_fails(self, monkeypatch, capsys):
        import adrtag.model as m

        original = m._backprop_encoder
        monkeypatch.setattr(m, "_backprop_encoder",
                            lambda cells, rec, dh, shared_rows=False:
                            original(cells, rec, -dh, shared_rows))
        code, _, _ = run_cli(monkeypatch, capsys, "gradcheck", "--seeds", "1",
                             "--emb", "3", "--hidden", "3", "--timesteps", "3")
        assert code == EXIT_NUMERICAL


# Name -> (opts, secondary_opts, type name, choices, required, value when omitted),
# recorded before the flags of `pretrain` and `train` came from one settings table.
FLAG_SURFACE = {
    "pretrain": {
        "config_path": (("--config",), (), "path", (), False, None),
        "corpus": (("--corpus",), (), "path", (), True, None),
        "vocab": (("--vocab",), (), "path", (), True, None),
        "embeddings": (("--embeddings",), (), "path", (), True, None),
        "lexicon": (("--lexicon",), (), "path", (), True, None),
        "out_path": (("--out",), (), "path", (), True, None),
        "log_path": (("--log",), (), "path", (), False, None),
        "hidden": (("--hidden",), (), "integer", (), False, None),
        "epochs": (("--epochs",), (), "integer", (), False, None),
        "batch_size": (("--batch-size",), (), "integer", (), False, None),
        "max_len": (("--max-len",), (), "integer", (), False, None),
        "seed": (("--seed",), (), "integer", (), False, None),
        "learning_rate": (("--learning-rate",), (), "float", (), False, None),
        "pooling": (("--pooling",), (), "choice", ("mean", "sum"), False, None),
        "gate_biases": (("--gate-biases",), ("--no-gate-biases",), "boolean", (), False, None),
    },
    "train": {
        "config_path": (("--config",), (), "path", (), False, None),
        "labeled": (("--labeled",), (), "path", (), True, None),
        "vocab": (("--vocab",), (), "path", (), False, None),
        "embeddings": (("--embeddings",), (), "path", (), False, None),
        "init_checkpoint": (("--init-checkpoint",), (), "path", (), False, None),
        "out_path": (("--out",), (), "path", (), True, None),
        "log_path": (("--log",), (), "path", (), False, None),
        "hidden": (("--hidden",), (), "integer", (), False, None),
        "epochs": (("--epochs",), (), "integer", (), False, None),
        "batch_size": (("--batch-size",), (), "integer", (), False, None),
        "max_len": (("--max-len",), (), "integer", (), False, None),
        "seed": (("--seed",), (), "integer", (), False, None),
        "learning_rate": (("--learning-rate",), (), "float", (), False, None),
        "pooling": (("--pooling",), (), "choice", ("mean", "sum"), False, None),
        "gate_biases": (("--gate-biases",), ("--no-gate-biases",), "boolean", (), False, None),
    },
    "evaluate": {
        "checkpoint": (("--checkpoint",), (), "path", (), True, None),
        "test_path": (("--test",), (), "path", (), True, None),
        "trials": (("--trials",), (), "integer", (), False, 1),
        "labeled": (("--labeled",), (), "path", (), False, None),
        "epochs": (("--epochs",), (), "integer", (), False, 5),
        "max_len": (("--max-len",), (), "integer", (), False, 40),
        "seed": (("--seed",), (), "integer", (), False, 0),
        "label": (("--label",), (), "choice", ("ADR", "IND"), False, "ADR"),
        "report_path": (("--report",), (), "path", (), False, None),
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


def _training_inputs(workspace, monkeypatch, capsys, tmp_path, command):
    """Valid input flags for `pretrain` or `train`, so only the config can fail."""
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


@pytest.mark.parametrize("command", ["pretrain", "train"])
@pytest.mark.parametrize("line", ["hidden: abc", "learning_rate: abc", "seed: [1]",
                                  "batch_size: 2.5", "gate_biases: maybe"],
                         ids=lambda line: line.split(":")[0])
def test_mistyped_config_value_is_usage_error(workspace, monkeypatch, capsys, tmp_path,
                                              command, line):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"epochs: 1\nmax_len: 12\n{line}\n")
    inputs = _training_inputs(workspace, monkeypatch, capsys, tmp_path, command)
    code, _, err = run_cli(monkeypatch, capsys, command, "--config", str(config), *inputs,
                           "--out", str(tmp_path / "x.ckpt"))
    assert code == EXIT_USAGE
    assert f"cfg.yaml: {line.split(':')[0]}:" in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


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


@pytest.mark.parametrize("text", ["hidden: [3", "- hidden\n- 3"], ids=["not-yaml", "list"])
def test_config_that_is_not_a_mapping_is_usage_error(workspace, monkeypatch, capsys,
                                                     tmp_path, text):
    config = tmp_path / "cfg.yaml"
    config.write_text(text + "\n")
    inputs = _training_inputs(workspace, monkeypatch, capsys, tmp_path, "train")
    code, _, err = run_cli(monkeypatch, capsys, "train", "--config", str(config), *inputs,
                           "--out", str(tmp_path / "x.ckpt"))
    assert code == EXIT_USAGE
    assert "cfg.yaml" in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_config_values_parse_like_flags_and_flags_win(workspace, monkeypatch, capsys,
                                                      tmp_path, command):
    config = tmp_path / "cfg.yaml"
    config.write_text("hidden: 3\nepochs: 1\nmax_len: '12'\ngate_biases: 'false'\n")
    inputs = _training_inputs(workspace, monkeypatch, capsys, tmp_path, command)
    ckpt = tmp_path / "x.ckpt"
    code, _, err = run_cli(monkeypatch, capsys, command, "--config", str(config), *inputs,
                           "--hidden", "4", "--out", str(ckpt))
    assert code == 0, err
    model = load_checkpoint(ckpt)
    assert (model.hidden, model.gate_biases) == (4, False)
    code, _, err = run_cli(monkeypatch, capsys, "predict", "--checkpoint", str(ckpt),
                           "--text", "ugh so dizzy")
    assert code == 0, err


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
