"""One benchmark run of one workload, in a process of its own.

``run.py`` generates the inputs and starts this script; it prints nothing on
stdout and writes its result as JSON to ``--out``. The program is driven only
through the public names of ``adrtag.text``, ``encoding``, ``model``,
``training`` and ``evaluation``, imported from ``src/`` of the checkout.

A run has these phases:

1. set-up, repeated ``SETUPS`` times (its median is ``setup_s``);
2. an untimed warm-up of the main call and of one predict request;
3. the timed phase, in cycles until ``--seconds`` have passed and at least
   ``MIN_PREDICT`` requests were made. A cycle is one main unit (a
   ``training.pretrain`` epoch plus ``save_checkpoint``, a
   ``training.train_supervised`` epoch, or an ``evaluation.evaluate_tagging``
   pass), each training unit on a fresh copy of the set-up model so that
   every unit does the same work, and then one serve pass: closed-loop
   predict requests from one caller, raw text to spans, from the model the
   unit left;
4. output checks.

With ``--trace 1`` the run does one untraced and one traced set-up and
cycle; per-layer metrics come from the traced ones and
``trace_overhead_share`` from the difference in wall time.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, SRC_DIR)

import numpy as np  # noqa: E402

import adrtag  # noqa: E402
from adrtag import encoding, evaluation, text, training  # noqa: E402
from adrtag import model as adr_model  # noqa: E402

from tracing import Tracer  # noqa: E402

MAX_LEN = 40
HIDDEN = 500
VOCAB_CAP = 15000
PRETRAIN_TRAIN_EXAMPLES = 256  # two B=128 steps per timed unit
FINETUNE_EXAMPLES = 7  # one length block: 120 real tokens, seven B=1 steps
SETUPS = 3
MIN_PREDICT = 200  # p95 then has at least 10 samples above it
SERVE_TEXTS = 56  # eight length blocks of the test set
ROUND_TRIP_TEXTS = 12
LOSS_RTOL = 1e-6

clock = time.perf_counter


def _conll_ids(sentences, vocab, prefix):
    """(token ids, tag ids, id) records, mapping raw tokens as ``adr`` does."""
    return [
        (vocab.indices([text.normalize_token(t) for t in toks]), [int(t) for t in tags],
         f"{prefix}-{i}")
        for i, (toks, tags) in enumerate(sentences)
    ]


class Workload:
    """Set-up, one timed unit, and the model and vocabulary that serve."""

    steps_per_unit = 0
    step_kind = "training_steps"

    def __init__(self, data_dir, family, work_dir):
        self.data_dir = data_dir
        self.family = family
        self.work_dir = work_dir

    def path(self, name):
        return os.path.join(self.data_dir, name)

    def prepare(self):
        """Untimed bookkeeping after set-up."""

    def fresh(self):
        """The model a timed unit starts from (copied untimed)."""
        return copy.deepcopy(self.model)


class Pretrain(Workload):
    name = "pretrain"
    steps_per_unit = PRETRAIN_TRAIN_EXAMPLES // 128

    def setup(self):
        lexicon = text.DrugLexicon.load(self.path("drugs.txt"))
        stop = text.default_stopwords()
        kept, rejected, total = [], 0, 0
        with open(self.path("tweets.tsv"), encoding="utf-8") as fh:
            for line in fh:
                tweet_id, raw = line.rstrip("\n").split("\t", 1)
                total += 1
                tokens = text.remove_stopwords(text.tokenize(text.normalize(raw)), stop)
                try:
                    kept.append(text.mask_drug(text.TokenizedTweet(tokens, tweet_id), lexicon))
                except text.TweetRejected:
                    rejected += 1
        vocab = text.Vocabulary.build([ex.tokens for ex in kept], cap=VOCAB_CAP)
        table = text.load_embeddings(self.path("embeddings.txt"), vocab, seed=self.family)
        self.model = adr_model.AdrModel(
            table.vectors, hidden=HIDDEN, drug_count=len(lexicon), seed=self.family,
            vocab_tokens=vocab.index_to_token, drug_names=lexicon.names,
        )
        self.vocab = vocab
        self.examples = [(vocab.indices(ex.tokens), ex.drug_label, ex.source_id) for ex in kept]
        self.rejected_share = rejected / total

    def _slice(self, start, n_train):
        """Examples from ``start`` on, up to the ``n_train``-th that the
        held-out split puts in training."""
        rest = self.examples[start:]
        train, _ = training.heldout_split([e[2] for e in rest])
        cut = train[n_train - 1] + 1
        return rest[:cut], [rest[i] for i in train[:n_train]]

    def prepare(self):
        self.unit_examples, trained = self._slice(0, PRETRAIN_TRAIN_EXAMPLES)
        self.tokens_per_unit = sum(min(len(e[0]), MAX_LEN) for e in trained)
        self.warm_examples, _ = self._slice(len(self.unit_examples), 128)
        self.ckpt_path = os.path.join(self.work_dir, "pretrained.ckpt")

    def config(self):
        return training.pretrain_config(epochs=1, max_len=MAX_LEN, seed=self.family)

    def warmup(self):
        training.pretrain(self.warm_examples, self.fresh(), self.config())

    def unit(self, model):
        log = training.pretrain(self.unit_examples, model, self.config())
        training.save_checkpoint(model, self.ckpt_path)
        return {"loss": log[0]["mean_loss"], "accuracy": log[0]["accuracy"]}

    def reloaded(self, model):
        return training.load_checkpoint(self.ckpt_path)


class Finetune(Workload):
    name = "finetune"
    steps_per_unit = FINETUNE_EXAMPLES

    def setup(self):
        self.model = training.load_checkpoint(self.path("model.ckpt"))
        self.vocab = text.Vocabulary(self.model.vocab_tokens)
        self.data = _conll_ids(encoding.read_conll(self.path("train.conll")), self.vocab, "train")

    def prepare(self):
        self.unit_data = self.data[:FINETUNE_EXAMPLES]
        self.tokens_per_unit = sum(min(len(ids), MAX_LEN) for ids, _, _ in self.unit_data)

    def config(self):
        return training.supervised_config(epochs=1, max_len=MAX_LEN, seed=self.family)

    def warmup(self):
        training.train_supervised(self.data[-1:], self.fresh(), self.config())

    def unit(self, model):
        log = training.train_supervised(self.unit_data, model, self.config())
        return {"loss": log[0]["mean_loss"], "accuracy": log[0]["accuracy"]}

    def reloaded(self, model):
        path = os.path.join(self.work_dir, "finetuned.ckpt")
        training.save_checkpoint(model, path)
        return training.load_checkpoint(path)


class Tag(Workload):
    name = "tag"
    step_kind = "evaluated_tweets"

    def setup(self):
        self.model = training.load_checkpoint(self.path("model.ckpt"))
        self.vocab = text.Vocabulary(self.model.vocab_tokens)
        self.data = _conll_ids(encoding.read_conll(self.path("test.conll")), self.vocab, "test")

    def prepare(self):
        self.steps_per_unit = len(self.data)
        self.tokens_per_unit = sum(len(ids) for ids, _, _ in self.data)

    def fresh(self):
        return self.model  # forward only: nothing to restore

    def warmup(self):
        evaluation.evaluate_tagging(self.model, self.data[:2])

    def unit(self, model):
        c = evaluation.evaluate_tagging(model, self.data)
        return {"counts": [c.matched, c.predicted, c.gold]}

    def reloaded(self, model):
        path = os.path.join(self.work_dir, "tag-roundtrip.ckpt")
        training.save_checkpoint(model, path)
        return training.load_checkpoint(path)


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Tag)}


def predict_request(model, vocab, raw):
    """One ``adr predict`` request: raw text in, decoded spans out."""
    tokens = text.tokenize(text.normalize(raw))
    tags = model.predict_tags(vocab.indices(tokens))
    return tuple((s.start, s.end, s.label) for s in encoding.decode_spans(tags))


def spans_digest(spans):
    lines = [";".join(f"{a}-{b}-{lab}" for a, b, lab in s) for s in spans]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def environment(seed, family):
    env = {
        "seed": seed,
        "family": family,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = blas.get("name")
        env["blas_version"] = blas.get("version")
    except (TypeError, KeyError):
        env["blas"] = env["blas_version"] = None
    return env


class Run:
    """The timed work of one run, with its operation and check counts."""

    def __init__(self, workload):
        self.w = workload
        # operation kind -> [attempted, failed]
        self.ops = {workload.step_kind: [0, 0], "predict_calls": [0, 0], "checks": [0, 0]}
        self.checks = []
        self.errors = []
        self.setup_s = []
        self.unit_s = []
        self.outputs = []  # what each main unit returned
        self.latencies = []
        self.first_pass = None  # spans of the first serve pass
        self.mismatches = 0  # later requests whose spans differ from it
        self.model = None  # the model the last unit left; it serves

    def count(self, kind, attempted, failed=0):
        self.ops[kind][0] += attempted
        self.ops[kind][1] += failed

    def check(self, name, ok, detail=""):
        self.count("checks", 1, 0 if ok else 1)
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def setup(self):
        self.w.model = None
        t0 = clock()
        self.w.setup()
        self.setup_s.append(clock() - t0)

    def unit(self):
        model = self.w.fresh()
        steps = self.w.steps_per_unit
        t0 = clock()
        try:
            out = self.w.unit(model)
        except Exception as exc:  # counted as failed work and reported
            self.count(self.w.step_kind, steps, steps)
            self.errors.append(f"{self.w.name} unit: {exc!r}")
            return False
        self.unit_s.append(clock() - t0)
        self.count(self.w.step_kind, steps)
        self.outputs.append(out)
        self.model = model
        return True

    def serve_pass(self, texts):
        """One closed-loop pass over ``texts``: one caller, one request at a
        time, every length served equally often."""
        seen = []
        for raw in texts:
            t0 = clock()
            try:
                spans = predict_request(self.model, self.w.vocab, raw)
            except Exception as exc:  # counted as failed work and reported
                self.count("predict_calls", 1, 1)
                self.errors.append(f"predict: {exc!r}")
                spans = None
            else:
                self.latencies.append(clock() - t0)
                self.count("predict_calls", 1)
            seen.append(spans)
        if self.first_pass is None:
            self.first_pass = seen
        else:
            self.mismatches += sum(a != b for a, b in zip(seen, self.first_pass))

    def cycle(self, texts):
        """One main unit, then one serve pass; returns (ok, wall seconds)."""
        t0 = clock()
        ok = self.unit()
        if ok:
            self.serve_pass(texts)
        return ok, clock() - t0


def execute(args):
    workload = WORKLOADS[args.workload](args.data, args.family, args.work)
    run = Run(workload)
    golden_mode = args.mode == "golden"
    tracer = Tracer() if args.trace else None
    with open(os.path.join(args.data, "test.conll"), encoding="utf-8") as fh:
        serve_texts = [
            " ".join(line.split("\t")[0] for line in block.splitlines())
            for block in fh.read().split("\n\n") if block.strip()
        ][:SERVE_TEXTS]

    # 1. set-up
    for _ in range(1 if golden_mode or tracer else SETUPS):
        run.setup()
    untraced_walls, traced_walls = [], []
    if tracer:
        untraced_walls.append(run.setup_s[-1])
        with tracer.traced("bench.setup"):
            run.setup()
        traced_walls.append(run.setup_s.pop())
    workload.prepare()

    # 2. warm-up
    if not golden_mode:
        workload.warmup()
        predict_request(workload.model, workload.vocab, serve_texts[0])

    # 3. timed phase: cycles of one main unit and one serve pass, so that
    # both metrics sample the whole run
    start = clock()
    if golden_mode:
        run.cycle(serve_texts)
    elif tracer:
        untraced_walls.append(run.cycle(serve_texts)[1])
        t0 = clock()
        with tracer.traced("bench.unit", count_tokens=True):
            run.unit()
        with tracer.traced("bench.serve"):
            run.serve_pass(serve_texts)
        traced_walls.append(clock() - t0)
    else:
        while run.cycle(serve_texts)[0]:
            if clock() - start >= args.seconds and len(run.latencies) >= MIN_PREDICT:
                break

    # 4. checks, after the peak RSS of the workload itself is read
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = dict(run.outputs[0]) if run.outputs else {}
    first = run.first_pass or [None]
    outputs["spans_sha256"] = None if None in first else spans_digest(first)
    if "loss" in outputs:
        losses = [o["loss"] for o in run.outputs]
        run.check("losses_finite", all(math.isfinite(x) for x in losses), str(losses))
    run.check("units_repeat", bool(run.outputs) and all(o == run.outputs[0] for o in run.outputs),
              f"{len(run.outputs)} units")
    run.check("serve_repeats", run.mismatches == 0, f"{run.mismatches} mismatched requests")
    if run.model is not None:
        reloaded = workload.reloaded(run.model)
        same = all(
            predict_request(reloaded, workload.vocab, t) == predict_request(run.model, workload.vocab, t)
            for t in serve_texts[:ROUND_TRIP_TEXTS]
        )
        run.check("checkpoint_round_trip", same, f"{ROUND_TRIP_TEXTS} texts")
    if not golden_mode:
        compare_golden(run, args, outputs)

    failed = sum(f for _, f in run.ops.values())
    result = {
        "workload": workload.name,
        "correct": failed == 0 and not run.errors,
        "attempted": sum(a for a, _ in run.ops.values()),
        "failed": failed,
        "ops": run.ops,
        "checks": run.checks,
        "errors": run.errors,
        "outputs": outputs,
        "env": environment(args.seed, args.family),
        "adrtag": os.path.dirname(adrtag.__file__),
        "details": {
            "setup_s": run.setup_s,
            "unit_s": run.unit_s,
            "tokens_per_unit": workload.tokens_per_unit,
            "tweets_per_unit": len(workload.data) if workload.name == "tag" else None,
            "predict_calls": len(run.latencies),
            "trace_walls": {"untraced": untraced_walls, "traced": traced_walls},
        },
    }
    if tracer:
        tracer.values["text.rejected_share"] = getattr(workload, "rejected_share", 0.0)
        tracer.values["trace_overhead_share"] = sum(traced_walls) / sum(untraced_walls) - 1.0
        result["metrics"] = tracer.report()
        result["missing"] = tracer.missing
        result["trace_file"] = os.path.join(args.work, "spans.jsonl")
        tracer.write(result["trace_file"])
    elif not golden_mode:
        lat_ms = np.asarray(run.latencies) * 1e3
        result["metrics"] = {
            "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"},
            "tokens_per_s": {
                "value": statistics.median(workload.tokens_per_unit / t for t in run.unit_s),
                "unit": "1/s",
            },
            "predict_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
            "predict_p95_ms": {"value": float(np.percentile(lat_ms, 95)), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return result


def compare_golden(run, args, outputs):
    with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    expected = golden["workloads"].get(args.workload, {}).get(str(args.family))
    if expected is None:
        run.check("golden", False, f"no golden values for family {args.family}")
        return
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    run.check("golden_inputs", inputs == expected["inputs"], "generated files' sha256")
    for key, want in expected["outputs"].items():
        got = outputs.get(key)
        if key == "loss":
            ok = got is not None and math.isclose(got, want, rel_tol=LOSS_RTOL, abs_tol=0.0)
        else:
            ok = got == want
        run.check(f"golden_{key}", ok, f"got {got!r}, golden {want!r}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True, help="directory of generated inputs")
    ap.add_argument("--inputs", help="JSON of the inputs' sha256, as gen.generate returns")
    ap.add_argument("--work", required=True, help="scratch directory for checkpoints")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--family", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "golden"), default="run")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if os.path.dirname(os.path.abspath(adrtag.__file__)) != os.path.join(SRC_DIR, "adrtag"):
        sys.exit(f"adrtag was imported from {adrtag.__file__}, not from {SRC_DIR}")
    result = execute(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
