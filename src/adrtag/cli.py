"""Command-line interface: preprocess -> build-vocab -> pretrain -> train ->
evaluate, plus ad-hoc predict and the gradient self-check.

Each error family ends the command with its own exit code (see ``errors``).
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import fields
from pathlib import Path

import click

from . import encoding, evaluation, text, training
from .errors import CheckpointError, DataError, NumericalError
from .files import atomic_write, read_stdin, reading
from .model import AdrModel, gradient_check

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def _training_options(command):
    """Add the flags `pretrain` and `train` share: the outputs, the model's
    width and one flag per TrainConfig field, typed by its default. A setting
    that is not given is None and keeps the default of the code that reads it."""
    for f in reversed(fields(training.TrainConfig)):
        flag = "--" + f.name.replace("_", "-")
        command = click.option(flag, f.name, type=type(f.default))(command)
    command = click.option("--hidden", type=click.IntRange(min=1))(command)
    command = click.option("--log", "log_path", type=click.Path())(command)
    return click.option("--out", "out_path", required=True, type=click.Path())(command)


def _read_unlabeled(path):
    """Yield each tweet of an unlabeled corpus as it is read: one tweet per
    line, 'tweet_id<TAB>raw_text'."""
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise DataError(f"{path}: line {lineno}: expected 'id<TAB>text'")
            yield parts[0], parts[1]


def _read_processed(path):
    """Yield each record of a drug-context corpus written by `adr preprocess`
    as it is read: 'tweet_id<TAB>drug_name<TAB>space-joined tokens'. A file
    without a record ends the stream with a DataError."""
    found = False
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}: line {lineno}: expected 'id<TAB>drug<TAB>tokens'")
            tokens = parts[2].split()
            if not tokens:
                raise DataError(f"{path}: line {lineno}: record has no tokens")
            found = True
            yield parts[0], parts[1], tokens
    if not found:
        raise DataError(f"{path}: no records found")


def _read_sentences(path):
    """The labeled sentences of a CoNLL file, which must hold at least one."""
    sentences = encoding.read_conll(path)
    if not sentences:
        raise DataError(f"{path}: no sentences found")
    return sentences


def _encode_labeled(sentences, vocab):
    data = []
    for i, (tokens, tags) in enumerate(sentences):
        ids = [vocab.index(text.normalize_token(t)) for t in tokens]
        data.append((ids, [int(t) for t in tags], f"sent-{i}"))
    return data


def _build_model_from_inputs(vocab, embeddings_path, hidden, seed, drug_names=None):
    """A fresh model over ``vocab`` and the embeddings file, whose coverage
    of ``vocab`` it prints; ``seed`` draws the missing embedding rows and the
    weights."""
    table = text.load_embeddings(embeddings_path, vocab, seed=seed)
    model = AdrModel(
        table.vectors,
        hidden=500 if hidden is None else hidden,
        drug_count=2 if drug_names is None else len(drug_names),
        seed=seed,
        vocab_tokens=vocab.index_to_token,
        drug_names=drug_names,
    )
    click.echo(f"embedding coverage: {table.coverage:.3f}")
    return model


def _load_tagger(checkpoint):
    """The checkpoint's model and the vocabulary it was trained with."""
    model = training.load_checkpoint(checkpoint)
    if model.vocab_tokens is None:
        raise CheckpointError(f"{checkpoint}: checkpoint carries no vocabulary")
    try:
        return model, text.Vocabulary(model.vocab_tokens)
    except DataError as exc:
        raise CheckpointError(f"{checkpoint}: vocab_tokens: {exc}") from None


def _run_phase(phase, examples, model, config, out, log_file, *first):
    """Report the tweets that batching will cut to ``config.max_len`` tokens,
    train ``model`` on ``examples`` by ``phase``, then write the checkpoint to
    ``out`` and, if given, the records ``first`` and the phase's log to
    ``log_file``. Returns the phase's log."""
    cut = sum(len(e[0]) > config.max_len for e in examples)
    click.echo(f"truncated: {cut} of {len(examples)} tweets longer than max_len "
               f"{config.max_len}")
    log = phase(examples, model, config)
    training.write_checkpoint(model, out)
    if log_file:
        training.write_log(log_file, [*first, *log])
    return log


@contextlib.contextmanager
def _writing(*outputs):
    """Open every output before the command's work and yield one handle per
    ``(flag, path, mode)``, None for a path not given; each file is renamed
    into place only when the whole block completes. Two flags that name one
    file are a usage error, raised before any file is opened."""
    named = {}  # resolved path -> the first flag that names it
    for flag, path, _ in outputs:
        if not path:
            continue
        first = named.setdefault(Path(path).resolve(), flag)
        if first != flag:
            raise click.UsageError(f"{first} and {flag} name one file: {path}")
    with contextlib.ExitStack() as stack:
        yield [stack.enter_context(atomic_write(path, mode)) if path else None
               for _, path, mode in outputs]


@contextlib.contextmanager
def _naming_checkpoint(checkpoint):
    """Name the checkpoint in a NumericalError raised inside the block."""
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"{checkpoint}: {exc}") from exc


@click.group()
def cli():
    """Semi-supervised BiLSTM toolkit for ADR mention extraction."""


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--lexicon", required=True, type=click.Path(exists=True))
@click.option("--stopwords", type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def preprocess(input_path, lexicon, stopwords, out_path):
    """Normalize raw tweets and keep those with exactly one drug mention."""
    kept = no_drug = multi_drug = empty = 0
    with atomic_write(out_path) as fh:
        lex = text.DrugLexicon.load(lexicon)
        stop = text.load_stopwords(stopwords) if stopwords else text.default_stopwords()
        for tweet_id, raw in _read_unlabeled(input_path):
            tokens = text.remove_stopwords(text.tokenize(text.normalize(raw)), stop)
            if not tokens:
                empty += 1
                continue
            try:
                ex = text.mask_drug(text.TokenizedTweet(tokens, tweet_id), lex)
            except text.NoDrugMention:
                no_drug += 1
                continue
            except text.MultipleDrugMentions:
                multi_drug += 1
                continue
            kept += 1
            fh.write(f"{ex.source_id}\t{lex.names[ex.drug_label]}\t{' '.join(ex.tokens)}\n")
        if not kept + no_drug + multi_drug + empty:
            raise DataError(f"{input_path}: no tweets found")
        click.echo(
            f"kept={kept} rejected_no_drug={no_drug} "
            f"rejected_multi_drug={multi_drug} dropped_empty={empty}"
        )
        if not kept:
            raise DataError(f"{input_path}: no tweets survived preprocessing with the lexicon "
                            f"{lexicon}")


@cli.command("build-vocab")
@click.option("--unlabeled", type=click.Path(exists=True))
@click.option("--labeled", type=click.Path(exists=True))
@click.option("--cap", default=15000, show_default=True, type=click.IntRange(min=1))
@click.option("--out", "out_path", required=True, type=click.Path())
def build_vocab(unlabeled, labeled, cap, out_path):
    """Build the capped frequency vocabulary and write one token per line."""
    if not (unlabeled or labeled):
        raise click.UsageError("need --labeled and/or --unlabeled input")

    def streams():
        if unlabeled:
            yield from (tokens for _, _, tokens in _read_processed(unlabeled))
        if labeled:
            for tokens, _ in _read_sentences(labeled):
                yield [text.normalize_token(t) for t in tokens]

    with atomic_write(out_path) as fh:
        try:
            vocab = text.Vocabulary.build(streams(), cap=cap)
        except DataError:  # a reader's, raised while build counts
            raise
        except ValueError:  # not the cap, which click checked: no token but sentinels
            inputs = " and ".join(p for p in (unlabeled, labeled) if p)
            raise DataError(f"{inputs}: no token to keep; each is a sentinel or a word that "
                            f"normalizes to {text.UNK}") from None
        vocab.write(fh)
    click.echo(f"vocabulary size={len(vocab)} (cap {cap} + {len(text.SENTINELS)} sentinels)")


@cli.command()
@click.option("--corpus", type=click.Path(exists=True), required=True)
@click.option("--vocab", type=click.Path(exists=True), required=True)
@click.option("--embeddings", type=click.Path(exists=True), required=True)
@click.option("--lexicon", type=click.Path(exists=True), required=True)
@_training_options
def pretrain(corpus, vocab, embeddings, lexicon, out_path, log_path, hidden, **settings):
    """Phase 1: train the encoder to predict the masked drug from context."""
    with _writing(("--out", out_path, "wb"), ("--log", log_path, "w")) as outputs:
        train_cfg = training.pretrain_config(
            **{k: v for k, v in settings.items() if v is not None})
        lex = text.DrugLexicon.load(lexicon)
        if len(lex) < 2:
            raise DataError(f"{lexicon}: drug lexicon must contain at least 2 names, "
                            f"has {len(lex)}")
        vocab_obj = text.Vocabulary.load(vocab)
        examples = []
        for tweet_id, drug, tokens in _read_processed(corpus):
            if drug not in lex.index:
                raise DataError(f"{corpus}: unknown drug name {drug!r}")
            examples.append((vocab_obj.indices(tokens), lex.index[drug], tweet_id))
        model = _build_model_from_inputs(vocab_obj, embeddings, hidden, train_cfg.seed,
                                         lex.names)
        log = _run_phase(training.pretrain, examples, model, train_cfg, *outputs)
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
@_training_options
def train(labeled, vocab, embeddings, init_checkpoint, out_path, log_path, hidden, **settings):
    """Phase 2: supervised tagging, fresh or from a pretraining checkpoint."""
    with _writing(("--out", out_path, "wb"), ("--log", log_path, "w")) as outputs:
        train_cfg = training.supervised_config(
            **{k: v for k, v in settings.items() if v is not None})
        if init_checkpoint:
            fixed = [flag for flag, path in (("--vocab", vocab), ("--embeddings", embeddings))
                     if path is not None]
            if fixed:
                raise click.UsageError(f"{', '.join(fixed)}: the --init-checkpoint vocabulary "
                                       "and embeddings are fixed")
            model, vocab_obj = _load_tagger(init_checkpoint)
            if hidden not in (None, model.hidden):
                raise click.UsageError(f"hidden: {hidden} given, but --init-checkpoint "
                                       f"{init_checkpoint} has {model.hidden}")
        else:
            if not (vocab and embeddings):
                raise click.UsageError(
                    "--vocab and --embeddings are required without --init-checkpoint"
                )
            vocab_obj = text.Vocabulary.load(vocab)
            model = _build_model_from_inputs(vocab_obj, embeddings, hidden, train_cfg.seed)
        data = _encode_labeled(_read_sentences(labeled), vocab_obj)
        click.echo(f"training tweets: {len(data)}")
        log = _run_phase(training.train_supervised, data, model, train_cfg, *outputs,
                         {"phase": "supervised", "event": "data", "train_tweets": len(data)})
    if log:
        click.echo(f"final loss {log[-1]['mean_loss']:.4f}, "
                   f"token accuracy {log[-1]['accuracy']:.3f}")


@cli.command()
@click.option("--checkpoint", "checkpoints", multiple=True, required=True, type=click.Path(),
              help="a trained tagger; repeat for one trial per checkpoint")
@click.option("--test", "test_path", required=True, type=click.Path(exists=True))
@click.option("--label", type=click.Choice(["ADR", "IND"]), default="ADR",
              show_default=True, help="span label to score")
@click.option("--report", "report_path", type=click.Path())
def evaluate(checkpoints, test_path, label, report_path):
    """Approximate-match P/R/F1 on ADR spans, one trial per --checkpoint in
    the order given, and their mean ± std."""
    with _writing(("--report", report_path, "w")) as (report_file,):
        per_trial = []
        for checkpoint in checkpoints:
            model, vocab_obj = _load_tagger(checkpoint)
            if not per_trial:  # read once, after the first checkpoint loads
                sentences = _read_sentences(test_path)
            test_data = _encode_labeled(sentences, vocab_obj)  # by this checkpoint's vocabulary
            with _naming_checkpoint(checkpoint):
                per_trial.append(evaluation.prf(
                    evaluation.evaluate_tagging(model, test_data, label)))
            del model  # gone before the next checkpoint's model loads
        report = evaluation.aggregate_trials(per_trial)
        out = evaluation.format_report(report)
        if report_file:
            report_file.write(out + "\n")
    click.echo(out)


@cli.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--text", "raw_text", help="raw tweet text; reads stdin, as UTF-8, if omitted")
def predict(checkpoint, raw_text):
    """Tag ad-hoc text with a trained model and print the decoded spans."""
    model, vocab_obj = _load_tagger(checkpoint)
    if raw_text is None:
        raw_text = read_stdin()
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
@click.option("--seeds", default=10, show_default=True, type=click.IntRange(min=1))
def gradcheck(seeds):
    """Verify analytic gradients of both heads against finite differences."""
    failed = False
    for seed in range(seeds):
        for res in gradient_check(seed):
            status = "ok" if res.ok else "FAIL"
            click.echo(
                f"seed={res.seed} head={res.head} max_rel_err={res.max_rel_err:.2e} "
                f"({res.worst_param}) {status}"
            )
            failed = failed or not res.ok
    if failed:
        raise NumericalError("gradient check failed")
    click.echo("all gradients match finite differences")


def _fail(code: int, message: str):
    if message:  # an Abort has none, and click has already ended the line
        click.echo(f"error: {message}", err=True)
    sys.exit(code)


def main():
    try:
        cli.main(standalone_mode=False)
    except (DataError, OSError) as exc:
        _fail(EXIT_DATA, str(exc))
    except NumericalError as exc:
        _fail(EXIT_NUMERICAL, str(exc))
    except (click.ClickException, click.exceptions.Abort, ValueError) as exc:
        _fail(EXIT_USAGE,
              exc.format_message() if isinstance(exc, click.ClickException) else str(exc))


if __name__ == "__main__":
    main()
