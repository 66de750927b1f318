"""Command-line interface: preprocess -> build-vocab -> pretrain -> train ->
evaluate, plus ad-hoc predict and the gradient self-check.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical failure.
Relative checkpoint paths are resolved against $ADR_CHECKPOINT_DIR when set.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import fields
from pathlib import Path

import click
import numpy as np
import yaml

from . import encoding, evaluation, text, training
from .files import atomic_write
from .model import AdrModel, gradient_check
from .numerics import NumericalError

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# The settings `pretrain` and `train` share. Each is a flag on both commands
# and a key of their --config file, whose value is checked with the same type.
# A setting that is not given keeps the default of the code that reads it.
TRAINING_SETTINGS = {
    "hidden": click.INT,
    "epochs": click.INT,
    "batch_size": click.INT,
    "max_len": click.INT,
    "seed": click.INT,
    "learning_rate": click.FLOAT,
    "pooling": click.Choice(["mean", "sum"]),
    "gate_biases": click.BOOL,
}


def _ckpt_path(path) -> Path:
    base = os.environ.get("ADR_CHECKPOINT_DIR")
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _training_options(command):
    """Add --config and one flag per TRAINING_SETTINGS entry, None when not given."""
    for name, kind in reversed(TRAINING_SETTINGS.items()):
        flag = "--" + name.replace("_", "-")
        if kind is click.BOOL:
            flag += f"/--no-{flag[2:]}"
        command = click.option(flag, name, type=kind, default=None)(command)
    return click.option("--config", "config_path", type=click.Path(exists=True))(command)


def _resolve_settings(config_path, flags) -> dict:
    """The training settings given in --config or as flags; a flag wins. A
    config value must parse as the text of its flag would."""
    settings = {}
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            try:
                cfg = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise click.UsageError(f"{config_path}: not valid YAML: {exc}") from exc
        if not isinstance(cfg, dict):
            raise click.UsageError(f"{config_path}: config must be a mapping")
        unknown = sorted(str(k) for k in cfg if k not in TRAINING_SETTINGS)
        if unknown:
            raise click.UsageError(
                f"{config_path}: unknown config key(s) {', '.join(unknown)}"
            )
        for key, value in cfg.items():
            try:
                settings[key] = TRAINING_SETTINGS[key].convert(str(value), None, None)
            except click.BadParameter as exc:
                raise click.UsageError(f"{config_path}: {key}: {exc.message}") from exc
    settings.update((k, v) for k, v in flags.items() if v is not None)
    return settings


def _train_config(factory, settings) -> training.TrainConfig:
    """`factory`'s config with the given settings; the rest keep their defaults."""
    def given(cls):
        return {f.name: settings[f.name] for f in fields(cls) if f.name in settings}

    return factory(adam=training.AdamConfig(**given(training.AdamConfig)),
                   **given(training.TrainConfig))


def _read_unlabeled(path):
    """Unlabeled corpus: one tweet per line, 'tweet_id<TAB>raw_text'."""
    tweets = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise text.DataError(f"{path}: line {lineno}: expected 'id<TAB>text'")
            tweets.append((parts[0], parts[1]))
    return tweets


def _read_processed(path):
    """Drug-context corpus written by `adr preprocess`:
    'tweet_id<TAB>drug_name<TAB>space-joined tokens'."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise text.DataError(
                    f"{path}: line {lineno}: expected 'id<TAB>drug<TAB>tokens'"
                )
            out.append((parts[0], parts[1], parts[2].split()))
    return out


def _encode_labeled(sentences, vocab):
    data = []
    for i, (tokens, tags) in enumerate(sentences):
        ids = [vocab.index(text.normalize_token(t)) for t in tokens]
        data.append((ids, [int(t) for t in tags], f"sent-{i}"))
    return data


def _build_model_from_inputs(vocab_path, embeddings_path, settings, drug_names=None):
    seed = settings.get("seed", 0)
    vocab = text.Vocabulary.load(vocab_path)
    table = text.load_embeddings(embeddings_path, vocab, seed=seed)
    model = AdrModel(
        table.vectors,
        hidden=settings.get("hidden", 500),
        drug_count=max(len(drug_names), 2) if drug_names is not None else 2,
        seed=seed,
        vocab_tokens=vocab.index_to_token,
        drug_names=drug_names,
        **{k: settings[k] for k in ("pooling", "gate_biases") if k in settings},
    )
    return model, vocab, table


def _load_tagger(checkpoint, expected_hidden=None):
    """The checkpoint's model and the vocabulary it was trained with."""
    path = _ckpt_path(checkpoint)
    model = training.load_checkpoint(path, expected_hidden=expected_hidden)
    if model.vocab_tokens is None:
        raise training.CheckpointError(f"{path}: checkpoint carries no vocabulary")
    try:
        return model, text.Vocabulary(model.vocab_tokens)
    except text.DataError as exc:
        raise training.CheckpointError(f"{path}: vocab_tokens: {exc}") from None


def _echo_truncation(sequences, max_len):
    """Report the tweets that batching will cut to ``max_len`` tokens."""
    cut = sum(len(seq) > max_len for seq in sequences)
    click.echo(f"truncated: {cut} of {len(sequences)} tweets longer than max_len {max_len}")


@contextlib.contextmanager
def _naming_checkpoint(checkpoint):
    """Name the checkpoint in a NumericalError raised inside the block."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"{_ckpt_path(checkpoint)}: {exc}") from exc


@click.group()
def cli():
    """Semi-supervised BiLSTM toolkit for ADR mention extraction."""


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--lexicon", required=True, type=click.Path(exists=True))
@click.option("--stopwords", type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--drug-mask/--no-drug-mask", default=True, show_default=True)
def preprocess(input_path, lexicon, stopwords, out_path, drug_mask):
    """Normalize raw tweets and keep those with exactly one drug mention."""
    lex = text.DrugLexicon.load(lexicon)
    stop = text.load_stopwords(stopwords) if stopwords else text.default_stopwords()
    tweets = _read_unlabeled(input_path)
    if not tweets:
        raise text.DataError(f"{input_path}: no tweets found")
    lines = []
    no_drug = multi_drug = empty = 0
    for tweet_id, raw in tweets:
        tokens = text.remove_stopwords(text.tokenize(text.normalize(raw)), stop)
        if not tokens:
            empty += 1
            continue
        try:
            ex = text.mask_drug(text.TokenizedTweet(tokens, tweet_id), lex, mask=drug_mask)
        except text.NoDrugMention:
            no_drug += 1
            continue
        except text.MultipleDrugMentions:
            multi_drug += 1
            continue
        lines.append(f"{ex.source_id}\t{lex.names[ex.drug_label]}\t{' '.join(ex.tokens)}\n")
    click.echo(
        f"kept={len(lines)} rejected_no_drug={no_drug} "
        f"rejected_multi_drug={multi_drug} dropped_empty={empty}"
    )
    if not lines:
        raise text.DataError("no tweets survived preprocessing")
    with atomic_write(out_path) as fh:
        fh.writelines(lines)


@cli.command("build-vocab")
@click.option("--unlabeled", type=click.Path(exists=True))
@click.option("--labeled", type=click.Path(exists=True))
@click.option("--cap", default=15000, show_default=True)
@click.option("--source", type=click.Choice(["both", "labeled_only"]), default="both",
              show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def build_vocab(unlabeled, labeled, cap, source, out_path):
    """Build the capped frequency vocabulary and write one token per line."""
    streams = []
    if source == "both" and unlabeled:
        streams.extend(tokens for _, _, tokens in _read_processed(unlabeled))
    if labeled:
        for tokens, _ in encoding.read_conll(labeled):
            streams.append([text.normalize_token(t) for t in tokens])
    if not streams:
        raise click.UsageError("need --labeled and/or --unlabeled input")
    vocab = text.Vocabulary.build(streams, cap=cap)
    vocab.save(out_path)
    click.echo(f"vocabulary size={len(vocab)} (cap {cap} + {len(text.SENTINELS)} sentinels)")


@cli.command()
@click.option("--corpus", type=click.Path(exists=True), required=True)
@click.option("--vocab", type=click.Path(exists=True), required=True)
@click.option("--embeddings", type=click.Path(exists=True), required=True)
@click.option("--lexicon", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--log", "log_path", type=click.Path())
@_training_options
def pretrain(corpus, vocab, embeddings, lexicon, out_path, log_path, config_path,
             **flags):
    """Phase 1: train the encoder to predict the masked drug from context."""
    settings = _resolve_settings(config_path, flags)
    lex = text.DrugLexicon.load(lexicon)
    if len(lex) < 2:
        raise click.UsageError("drug lexicon must contain at least 2 names")
    model, vocab_obj, table = _build_model_from_inputs(vocab, embeddings, settings,
                                                       lex.names)
    click.echo(f"embedding coverage: {table.coverage:.3f}")
    examples = []
    for tweet_id, drug, tokens in _read_processed(corpus):
        if drug not in lex.index:
            raise text.DataError(f"{corpus}: unknown drug name {drug!r}")
        examples.append((vocab_obj.indices(tokens), lex.index[drug], tweet_id))
    train_cfg = _train_config(training.pretrain_config, settings)
    _echo_truncation([e[0] for e in examples], train_cfg.max_len)
    log = training.pretrain(examples, model, train_cfg)
    training.save_checkpoint(model, _ckpt_path(out_path))
    if log_path:
        training.write_log(log_path, log)
    if log:
        last = log[-1]
        acc = "n/a" if last["accuracy"] is None else f"{last['accuracy']:.3f}"
        click.echo(
            f"pretrained {len(examples)} examples, {train_cfg.epochs} epochs; "
            f"final loss {last['mean_loss']:.4f}, held-out accuracy {acc}"
        )


@cli.command()
@click.option("--labeled", type=click.Path(exists=True), required=True)
@click.option("--vocab", type=click.Path(exists=True))
@click.option("--embeddings", type=click.Path(exists=True))
@click.option("--init-checkpoint", type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--log", "log_path", type=click.Path())
@_training_options
def train(labeled, vocab, embeddings, init_checkpoint, out_path, log_path,
          config_path, **flags):
    """Phase 2: supervised tagging, fresh or from a pretraining checkpoint."""
    settings = _resolve_settings(config_path, flags)
    if init_checkpoint:
        fixed = [flag for flag, given in (("--pooling", flags["pooling"] is not None),
                                          ("--gate-biases", flags["gate_biases"] is True),
                                          ("--no-gate-biases", flags["gate_biases"] is False),
                                          ("--vocab", vocab is not None),
                                          ("--embeddings", embeddings is not None))
                 if given]
        if fixed:
            raise click.UsageError(f"{', '.join(fixed)}: the --init-checkpoint architecture, "
                                   "vocabulary and embeddings are fixed")
        model, vocab_obj = _load_tagger(init_checkpoint, settings.get("hidden"))
    else:
        if not (vocab and embeddings):
            raise click.UsageError(
                "--vocab and --embeddings are required without --init-checkpoint"
            )
        model, vocab_obj, _ = _build_model_from_inputs(vocab, embeddings, settings)
    sentences = encoding.read_conll(labeled)
    data = _encode_labeled(sentences, vocab_obj)
    click.echo(f"training tweets: {len(data)}")
    train_cfg = _train_config(training.supervised_config, settings)
    _echo_truncation([d[0] for d in data], train_cfg.max_len)
    log = [{"phase": "supervised", "event": "data", "train_tweets": len(data)}]
    log += training.train_supervised(data, model, train_cfg)
    training.save_checkpoint(model, _ckpt_path(out_path))
    if log_path:
        training.write_log(log_path, log)
    if len(log) > 1:
        click.echo(f"final loss {log[-1]['mean_loss']:.4f}, "
                   f"token accuracy {log[-1]['accuracy']:.3f}")


@cli.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--test", "test_path", required=True, type=click.Path(exists=True))
@click.option("--trials", default=1, show_default=True)
@click.option("--labeled", type=click.Path(exists=True),
              help="training TSV, required when --trials > 1")
@click.option("--epochs", type=int, default=training.TrainConfig.epochs, show_default=True)
@click.option("--max-len", type=int, default=training.TrainConfig.max_len, show_default=True)
@click.option("--seed", type=int, default=training.TrainConfig.seed, show_default=True)
@click.option("--label", type=click.Choice(["ADR", "IND"]), default="ADR",
              show_default=True, help="span label to score")
@click.option("--report", "report_path", type=click.Path())
def evaluate(checkpoint, test_path, trials, labeled, epochs, max_len, seed,
             label, report_path):
    """Approximate-match P/R/F1 on ADR spans; with --trials > 1, retrain from
    the checkpoint with per-trial seeds (seed+i) and report mean ± std."""
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    if trials > 1 and not labeled:
        raise click.UsageError("--labeled is required when --trials > 1")
    per_trial = []
    for i in range(trials):
        model, vocab_obj = _load_tagger(checkpoint)
        if i == 0:
            test_data = _encode_labeled(encoding.read_conll(test_path), vocab_obj)
        with _naming_checkpoint(checkpoint):
            if trials > 1:
                data = _encode_labeled(encoding.read_conll(labeled), vocab_obj)
                training.train_supervised(data, model, training.supervised_config(
                    epochs=epochs, max_len=max_len, seed=seed + i))
            per_trial.append(evaluation.prf(
                evaluation.evaluate_tagging(model, test_data, label)))
    report = evaluation.aggregate_trials(per_trial)
    out = evaluation.format_report(report)
    click.echo(out)
    if report_path:
        with atomic_write(report_path) as fh:
            fh.write(out + "\n")


@cli.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--text", "raw_text", help="raw tweet text; reads stdin if omitted")
def predict(checkpoint, raw_text):
    """Tag ad-hoc text with a trained model and print the decoded spans."""
    model, vocab_obj = _load_tagger(checkpoint)
    if raw_text is None:
        raw_text = sys.stdin.read()
    tokens = text.tokenize(text.normalize(raw_text))
    if not tokens:
        click.echo("warning: input is empty after preprocessing", err=True)
        return
    with _naming_checkpoint(checkpoint):
        tags = model.predict_tags(vocab_obj.indices(tokens))
    for tok, tag in zip(tokens, tags):
        click.echo(f"{tok}\t{encoding.TAG_TO_STRING[tag]}")
    for span in encoding.decode_spans(tags):
        phrase = " ".join(tokens[span.start : span.end])
        click.echo(f"span\t{span.label}\t{span.start}\t{span.end}\t{phrase}")


@cli.command()
@click.option("--seeds", default=10, show_default=True)
@click.option("--emb", default=5, show_default=True)
@click.option("--hidden", default=7, show_default=True)
@click.option("--timesteps", default=4, show_default=True)
@click.option("--drugs", default=3, show_default=True)
@click.option("--epsilon", default=1e-5, show_default=True)
@click.option("--tolerance", default=1e-4, show_default=True)
def gradcheck(seeds, emb, hidden, timesteps, drugs, epsilon, tolerance):
    """Verify analytic gradients of both heads against finite differences."""
    if epsilon <= 0:
        raise click.UsageError("--epsilon must be positive")
    failed = False
    for seed in range(seeds):
        for res in gradient_check(
            seed, emb=emb, hidden=hidden, timesteps=timesteps, drugs=drugs,
            epsilon=epsilon, tolerance=tolerance,
        ):
            status = "ok" if res.ok else "FAIL"
            click.echo(
                f"seed={res.seed} head={res.head} max_rel_err={res.max_rel_err:.2e} "
                f"({res.worst_param}) {status}"
            )
            failed = failed or not res.ok
    if failed:
        raise NumericalError("gradient check failed")
    click.echo("all gradients match finite differences")


def main():
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)
    except (text.DataError, encoding.AnnotationError,
            training.CheckpointError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    except NumericalError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
