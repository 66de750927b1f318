"""What "byte-identical" covers across BLAS thread counts: `adr train` at a
fixed setting writes the same checkpoint bytes every run, and 1 and 2
OpenBLAS threads tag alike, with weights within a relative tolerance.

At H=150 and B=16, BPTT's (B, 4H) @ (4H, H) product sums in another order on
two threads: with OpenBLAS 0.3.31 on a 2-core x86-64 box the two settings'
checkpoints differed in most weights, by at most 1.1e-13 of each array's
largest entry, after the 8 steps below.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adrtag
from adrtag.text import SENTINELS
from adrtag.training import load_checkpoint

SRC = Path(adrtag.__file__).resolve().parent.parent
# The norm of two settings' weight difference, over the norm of the weights.
RELATIVE_TOLERANCE = 1e-9
WORDS = [f"w{i}" for i in range(40)]
TEXT = "w1 w7 w3 w20 w5 w33 w0 w12 w2 w8 w39 w4"


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_inputs(directory: Path):
    rng = random.Random(3)
    adr = set(WORDS[:6])
    sentences = []
    for _ in range(64):
        words = [rng.choice(WORDS) for _ in range(rng.randint(8, 20))]
        sentences.append("".join(f"{w}\t{'I-ADR' if w in adr else 'O'}\n" for w in words))
    (directory / "train.tsv").write_text("\n".join(sentences), encoding="utf-8")
    (directory / "vocab.txt").write_text("\n".join([*SENTINELS, *WORDS]) + "\n",
                                         encoding="utf-8")
    rows = "".join(w + " " + " ".join(f"{rng.uniform(-0.5, 0.5):.5f}" for _ in range(32)) + "\n"
                   for w in WORDS)
    (directory / "emb.txt").write_text(f"{len(WORDS)} 32\n" + rows, encoding="utf-8")


def _adr(directory: Path, threads: int, *args) -> str:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "adrtag.cli", *args], cwd=directory, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(_cores() < 2, reason="needs 2 cores: on 1 core a second BLAS thread "
                                         "only time-slices with the first")
def test_thread_count_moves_only_the_last_bits(tmp_path):
    _write_inputs(tmp_path)
    checkpoints = {}
    for threads in (1, 2):
        runs = []
        for run in range(2):
            out = f"t{threads}-{run}.ckpt"
            _adr(tmp_path, threads, "train", "--labeled", "train.tsv", "--vocab", "vocab.txt",
                 "--embeddings", "emb.txt", "--hidden", "150", "--batch-size", "16",
                 "--epochs", "2", "--learning-rate", "0.01", "--out", out)
            runs.append((tmp_path / out).read_bytes())
        assert runs[0] == runs[1], f"two runs at {threads} BLAS threads wrote different bytes"
        checkpoints[threads] = f"t{threads}-0.ckpt"
    tags = {threads: _adr(tmp_path, threads, "predict", "--checkpoint", path, "--text", TEXT)
            for threads, path in checkpoints.items()}
    assert tags[1] == tags[2]
    one, two = (load_checkpoint(tmp_path / path) for path in checkpoints.values())
    for p, q in zip(one.tag_parameters(), two.tag_parameters()):
        gap = np.linalg.norm(p.value - q.value)
        assert gap <= RELATIVE_TOLERANCE * np.linalg.norm(p.value), p.name
