"""Check that a change keeps every output byte of `adr`.

Runs one fixed list of `adr` commands on two revisions of the repository,
over one seeded input set, and compares what each command did: its exit
code, stdout, stderr and the sha256 of every file it wrote. A training log
(a written ``*.jsonl`` file) is compared with its ``wall_time`` fields
removed, the one value allowed to differ between runs.

Each side is extracted with ``git archive`` into a temporary directory; the
change side defaults to the working tree. Both sides run with
``PYTHONPATH=<side>/src`` and one BLAS thread. Prints one line per command
and a summary, and exits 1 if any command differs. Standard library only.

Usage, from anywhere in a checkout:

    python tools/identity.py --parent REV [--change REV]
"""

import argparse
import hashlib
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}

# (name, command line after `adr`, stdin text or None), run in order in one directory
# that starts with the input set; later commands read earlier outputs.
COMMANDS = [
    ("preprocess", "preprocess --input raw.tsv --lexicon drugs.txt --out corpus.tsv", None),
    ("preprocess-stopwords", "preprocess --input raw.tsv --lexicon drugs.txt"
     " --stopwords stop.txt --out corpus-stop.tsv", None),
    ("preprocess-in-place", "preprocess --input inplace.tsv --lexicon drugs.txt"
     " --out inplace.tsv", None),
    ("build-vocab-unlabeled", "build-vocab --unlabeled corpus.tsv --cap 60"
     " --out vocab-unlabeled.txt", None),
    ("build-vocab-labeled", "build-vocab --labeled train.tsv --out vocab-labeled.txt", None),
    ("build-vocab", "build-vocab --unlabeled corpus.tsv --labeled train.tsv --out vocab.txt",
     None),
    ("pretrain-mean", "pretrain --corpus corpus.tsv --vocab vocab.txt --embeddings emb.txt"
     " --lexicon drugs.txt --hidden 6 --epochs 2 --batch-size 16 --out pre-mean.ckpt"
     " --log pre-mean.jsonl", None),
    ("pretrain-seeded", "pretrain --corpus corpus.tsv --vocab vocab.txt --embeddings emb.txt"
     " --lexicon drugs.txt --hidden 6 --epochs 2 --batch-size 16 --seed 3"
     " --learning-rate 0.02 --out pre-seeded.ckpt --log pre-seeded.jsonl", None),
    ("pretrain-truncated", "pretrain --corpus corpus.tsv --vocab vocab.txt"
     " --embeddings emb.txt --lexicon drugs.txt --hidden 6 --epochs 2 --batch-size 16"
     " --max-len 8 --out pre-truncated.ckpt --log pre-truncated.jsonl", None),
    ("train-b1-from-pretrained", "train --labeled train.tsv --init-checkpoint pre-mean.ckpt"
     " --epochs 5 --batch-size 1 --learning-rate 0.02 --out tagger-b1.ckpt"
     " --log tagger-b1.jsonl", None),
    ("train-b4-fresh", "train --labeled train.tsv --vocab vocab.txt --embeddings emb.txt"
     " --hidden 6 --epochs 10 --batch-size 4 --learning-rate 0.05 --out tagger-b4.ckpt"
     " --log tagger-b4.jsonl", None),
    ("evaluate", "evaluate --checkpoint tagger-b4.ckpt --test test.tsv --report eval1.txt",
     None),
    ("evaluate-ind", "evaluate --checkpoint tagger-b4.ckpt --test test.tsv --label IND"
     " --report eval-ind.txt", None),
    ("trial-0", "train --labeled train.tsv --init-checkpoint tagger-b1.ckpt --epochs 2"
     " --seed 0 --out trial-0.ckpt", None),
    ("trial-1", "train --labeled train.tsv --init-checkpoint tagger-b1.ckpt --epochs 2"
     " --seed 1 --out trial-1.ckpt", None),
    ("trial-2", "train --labeled train.tsv --init-checkpoint tagger-b1.ckpt --epochs 2"
     " --seed 2 --out trial-2.ckpt", None),
    ("evaluate-3-checkpoints", "evaluate --checkpoint trial-0.ckpt --checkpoint trial-1.ckpt"
     " --checkpoint trial-2.ckpt --test test.tsv --report eval3.txt", None),
    ("predict-text", "predict --checkpoint tagger-b4.ckpt"
     " --text 'this cymbalta gives me a headache and weird dreams'", None),
    ("predict-stdin", "predict --checkpoint tagger-b1.ckpt", "ugh effexor made me so dizzy\n"),
    ("gradcheck", "gradcheck --seeds 2", None),
    ("fail-usage", "train --labeled train.tsv --out never.ckpt", None),
    ("fail-data", "pretrain --corpus raw.tsv --vocab vocab.txt --embeddings emb.txt"
     " --lexicon drugs.txt --out never.ckpt", None),
    ("fail-numerical", "train --labeled train.tsv --vocab vocab.txt --embeddings huge.txt"
     " --hidden 2 --epochs 1 --out never.ckpt", None),
    ("fail-numerical-update", "train --labeled train.tsv --init-checkpoint pre-mean.ckpt"
     " --epochs 1 --batch-size 100 --learning-rate 1e308 --out big.ckpt", None),
]

DRUGS = ["effexor", "cymbalta", "seroquel", "lyrica"]
WORDS = ["ugh", "feel", "weird", "dizzy", "sleepy", "head", "hurts", "bad", "cant", "sleep",
         "today", "week", "still", "headache", "dreams", "nausea", "so", "tired", "the", "and"]
# Tags a tiny tagger learns in a few epochs, so that `evaluate` reports more than zeros.
TAGS = {"dizzy": "I-ADR", "headache": "I-ADR", "nausea": "I-ADR", "sleep": "I-IND"}


def write_inputs(directory: Path):
    """The seeded input set every side starts from."""
    rng = random.Random(7)
    raw = []
    for i in range(160):
        words = [rng.choice(WORDS) for _ in range(rng.randint(3, 12))]
        kind = i % 8
        if kind < 6:  # one drug mention; kinds 6 and 7 have none or two
            words.insert(rng.randrange(len(words) + 1), DRUGS[i % len(DRUGS)])
        elif kind == 7:
            words += [DRUGS[0], DRUGS[1]]
        raw.append(f"t{i}\t{' '.join(words)}{' @someone' if i % 5 == 0 else ''}\n")
    raw.append("t-empty\tthe and the\n")
    (directory / "raw.tsv").write_text("".join(raw), encoding="utf-8")
    (directory / "inplace.tsv").write_text("".join(raw[:40]), encoding="utf-8")
    (directory / "drugs.txt").write_text("\n".join(DRUGS) + "\n", encoding="utf-8")
    (directory / "stop.txt").write_text("so\nthe\n", encoding="utf-8")

    def conll(gen, n):
        sentences = []
        for _ in range(n):
            words = [gen.choice(WORDS) for _ in range(gen.randint(3, 9))]
            tags = [TAGS.get(w, "O") for w in words]
            sentences.append("".join(f"{w}\t{t}\n" for w, t in zip(words, tags)))
        return "\n".join(sentences)

    (directory / "train.tsv").write_text(conll(rng, 24), encoding="utf-8")
    # 200 test sentences, so that `evaluate`'s 4-decimal scores move when training
    # does; all but the first 12 come from their own generator, which leaves the
    # draws of the inputs below, and so their bytes, as they were with 12.
    test = conll(rng, 12) + "\n" + conll(random.Random(8), 188)
    (directory / "test.tsv").write_text(test, encoding="utf-8")
    known = WORDS[:-4]  # the last four get seeded random rows
    rows = [f"{w} " + " ".join(f"{rng.uniform(-0.5, 0.5):.5f}" for _ in range(5)) + "\n"
            for w in known]
    (directory / "emb.txt").write_text(f"{len(known)} 5\n" + "".join(rows), encoding="utf-8")
    huge = [f"{w} " + " ".join(["1.7e308"] * 5) + "\n" for w in known]
    (directory / "huge.txt").write_text(f"{len(known)} 5\n" + "".join(huge), encoding="utf-8")


def digest(name: str, data: bytes) -> str:
    """sha256 of a written file; a ``*.jsonl`` log is hashed without ``wall_time``."""
    if name.endswith(".jsonl"):
        try:
            records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
            for record in records:
                record.pop("wall_time", None)
            data = "\n".join(json.dumps(r, sort_keys=True) for r in records).encode("utf-8")
        except (ValueError, AttributeError):
            pass  # not a log of JSON objects: hash its bytes
    return hashlib.sha256(data).hexdigest()


def outcome(code: int, stdout: str, stderr: str, files: dict) -> dict:
    """What one command did; ``files`` maps each file it wrote to its bytes."""
    return {"exit": code, "stdout": stdout, "stderr": stderr,
            "files": {name: digest(name, data) for name, data in files.items()}}


def differences(parent: dict, change: dict) -> list:
    """What differs between two outcomes of one command, in words."""
    diff = [field for field in ("exit", "stdout", "stderr") if parent[field] != change[field]]
    for name in sorted(set(parent["files"]) | set(change["files"])):
        if name not in change["files"]:
            diff.append(f"{name} not written")
        elif name not in parent["files"]:
            diff.append(f"{name} written only by the change")
        elif parent["files"][name] != change["files"][name]:
            diff.append(f"{name} differs")
    return diff


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def run_side(src: Path, inputs: Path, work: Path) -> dict:
    """Run COMMANDS with ``src`` on the package path in a copy of ``inputs``."""
    shutil.copytree(inputs, work)
    # A parent revision that predates the path-as-typed rule still resolves
    # relative checkpoint paths against $ADR_CHECKPOINT_DIR.
    env = {k: v for k, v in os.environ.items() if k != "ADR_CHECKPOINT_DIR"}
    env.update(THREADS, PYTHONPATH=str(src))
    results = {}
    for name, args, stdin in COMMANDS:
        before = _snapshot(work)
        proc = subprocess.run([sys.executable, "-m", "adrtag.cli", *shlex.split(args)],
                              cwd=work, env=env,
                              input=(stdin or "").encode("utf-8"), capture_output=True)
        after = _snapshot(work)
        written = {n: data for n, data in after.items() if before.get(n) != data}
        results[name] = outcome(proc.returncode, proc.stdout.decode("utf-8", "replace"),
                                proc.stderr.decode("utf-8", "replace"), written)
    return results


def extract(rev: str, dest: Path) -> Path:
    """``rev``'s tree, from ``git archive``, under ``dest``."""
    dest.mkdir()
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=blob, check=True)
    return dest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--change", help="revision of the change (default: the working tree)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="adr-identity-") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        parent = run_side(extract(args.parent, tmp / "parent") / "src", inputs, tmp / "run-parent")
        change_root = extract(args.change, tmp / "change") if args.change else ROOT
        change = run_side(change_root / "src", inputs, tmp / "run-change")
    differing = 0
    for name, _, _ in COMMANDS:
        diff = differences(parent[name], change[name])
        differing += bool(diff)
        status = f"DIFF {'; '.join(diff)}" if diff else "same"
        print(f"{name}: exit {parent[name]['exit']}, "
              f"{len(parent[name]['files'])} file(s) written: {status}")
    print(f"identity: {differing} of {len(COMMANDS)} commands differ between {args.parent} "
          f"and {args.change or 'the working tree'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
