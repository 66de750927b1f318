import json
import sys

import numpy as np
import pytest

from adrtag import cli as cli_module
from adrtag.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_USAGE, main
from adrtag.model import AdrModel
from adrtag.training import CHECKPOINT_MAGIC, save_checkpoint


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


@pytest.mark.parametrize(
    "key", ["hidden", "emb", "drug_count", "seed", "pooling", "gate_biases", "arrays"]
)
def test_checkpoint_header_missing_key_is_data_error(monkeypatch, capsys, tmp_path, key):
    tokens = ["<PAD>", "<UNK>", "<LINK>", "<USER>", "<DRUG>", "ugh", "dizzy"]
    model = AdrModel(np.random.default_rng(0).normal(size=(len(tokens), 3)),
                     hidden=2, drug_count=2, seed=0, vocab_tokens=tokens,
                     drug_names=["a", "b"])
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(data[len(CHECKPOINT_MAGIC) : start], "little")
    header = json.loads(data[start:end])
    del header[key]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob + data[end:])

    code, _, err = run_cli(monkeypatch, capsys, "predict",
                           "--checkpoint", str(path), "--text", "ugh so dizzy")
    assert code == EXIT_DATA
    assert repr(key) in err and "Traceback" not in err


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

        original = m._backprop_direction
        monkeypatch.setattr(m, "_backprop_direction",
                            lambda cell, cache, dhs: original(cell, cache, -dhs))
        code, _, _ = run_cli(monkeypatch, capsys, "gradcheck", "--seeds", "1",
                             "--emb", "3", "--hidden", "3", "--timesteps", "3")
        assert code == EXIT_NUMERICAL
