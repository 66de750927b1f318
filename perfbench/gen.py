"""Seeded generator for the benchmark's inputs.

``generate(family, out_dir, parts)`` writes the files the program reads,
shaped like the paper's data (V~15k, E=400, H=500, 100 drugs, tweets of 5-30
tokens). Every file draws from its own child of ``SeedSequence(family)``, so
the same family gives byte-identical files whichever subset is asked for.

The generator imports nothing from ``adrtag``: the checkpoint is written in
the seed commit's version-1 layout by the code below, so later changes to the
program cannot change the benchmark's inputs.

Files:

- ``tweets.tsv``: 20k raw ``id<TAB>text`` tweets with Zipf-distributed
  words, URLs, ``@user`` handles, hashtags, punctuation, capitals, stopwords
  and emoji. Tweet ids and the kept/rejected pattern do not depend on the
  family, so the held-out split and the reject counts are the same for every
  seed. Every 13th tweet has no drug and some others have two, so the
  ``mask_drug`` reject paths run.
- ``drugs.txt``: 100 single-token drug names, one per line.
- ``embeddings.txt``: 14,500 x 400 text vectors; 500 rows are words that the
  corpus never uses, and about 1,000 corpus words have no row.
- ``model.ckpt``: a randomly initialised paper-shaped checkpoint
  (V=15,005, E=400, H=500).
- ``train.conll`` / ``test.conll``: 406 / 98 labeled tweets with ADR and IND
  spans. Lengths come in blocks of seven that permute
  (5, 9, 13, 17, 21, 25, 30), so any whole block holds 120 tokens for every
  seed, and the median length falls inside a group, not between two.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

EMB = 400
HIDDEN = 500
WORDS = 15000  # corpus word types, ranked by a per-family Zipf order
EXTRA_WORDS = 500  # words with embeddings that never occur in the corpus
EMB_ROWS_FROM_CORPUS = 14000
DRUGS = 100
RAW_TWEETS = 20000
RAW_LENGTHS = tuple(range(5, 31))
LABELED_LENGTHS = (5, 9, 13, 17, 21, 25, 30)
TRAIN_TWEETS = 406
TEST_TWEETS = 98
ZIPF_SHIFT = 2.7

SENTINELS = ("<PAD>", "<UNK>", "<LINK>", "<USER>", "<DRUG>")
CHECKPOINT_MAGIC = b"ADRCKPT1"
GATES = ("u", "f", "c", "o")
STOPWORDS_USED = ("the", "and", "i", "my", "it", "is", "so", "with", "was", "this")
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_DRUG_SUFFIXES = ("ex", "ol", "in", "ax", "um")
_URL_CHARS = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))

PARTS = ("raw", "ckpt", "conll")
_STREAMS = ("rank", "vectors", "raw", "ckpt", "train", "test")


def _lexicon():
    """Seed-independent word types and drug names (pronounceable, lowercase,
    disjoint from the package's stopword list)."""
    rng = np.random.default_rng(20170906)
    stop = set(STOPWORDS_USED) | {"before", "during", "myself", "itself", "should"}
    words, seen = [], set()
    while len(words) < WORDS + EXTRA_WORDS:
        w = "".join(_SYLLABLES[k] for k in rng.integers(0, len(_SYLLABLES), 3))
        if w not in seen and w not in stop:
            seen.add(w)
            words.append(w)
    drugs = []
    while len(drugs) < DRUGS:
        syl = rng.integers(0, len(_SYLLABLES), 2)
        d = _SYLLABLES[syl[0]] + _SYLLABLES[syl[1]] + _DRUG_SUFFIXES[len(drugs) % 5]
        if d not in drugs:
            drugs.append(d)
    return words, drugs


class _Family:
    def __init__(self, family: int):
        self.family = family
        seqs = np.random.SeedSequence([family, 0xADD]).spawn(len(_STREAMS))
        self.streams = dict(zip(_STREAMS, seqs))
        self.words, self.drugs = _lexicon()
        rank_rng = self.rng("rank")
        self.rank = rank_rng.permutation(WORDS)  # rank r -> word id
        p = np.cumsum(1.0 / (np.arange(WORDS) + ZIPF_SHIFT))
        self.zipf_cdf = p / p[-1]

    def rng(self, name):
        return np.random.default_rng(self.streams[name])

    def vectors(self):
        return self.rng("vectors").normal(0.0, 0.25, size=(WORDS + EXTRA_WORDS, EMB))

    def sample_words(self, rng, n):
        ranks = np.searchsorted(self.zipf_cdf, rng.random(n), side="right")
        return [self.words[self.rank[min(r, WORDS - 1)]] for r in ranks]


def _block_lengths(rng, values, n):
    out = []
    while len(out) < n:
        out.extend(int(v) for v in rng.permutation(values))
    return out[:n]


def _surface(rng, word):
    """A raw spelling of ``word`` that ``normalize`` maps back to it."""
    r = rng.random()
    if r < 0.70:
        return word
    if r < 0.80:
        return word.capitalize()
    if r < 0.88:
        return word + (",", "!", "...", "?")[int(rng.integers(0, 4))]
    if r < 0.94:
        return "#" + word
    return word.upper()


def _url(rng):
    return "https://t.co/" + "".join(rng.choice(_URL_CHARS, size=8))


def _content(fam, rng, length, drugs):
    """``length`` raw tokens, each normalizing to exactly one token, with the
    given drug names at random positions."""
    words = fam.sample_words(rng, length)
    toks = [_surface(rng, w) for w in words]
    if length >= 8 and rng.random() < 0.25:
        toks[int(rng.integers(0, length))] = _url(rng)
    if length >= 6 and rng.random() < 0.25:
        toks[int(rng.integers(0, length))] = "@" + fam.sample_words(rng, 1)[0]
    slots = rng.choice(length, size=len(drugs), replace=False)
    for pos, drug in zip(slots, drugs):
        toks[int(pos)] = drug.capitalize() if rng.random() < 0.3 else drug
    return toks, [int(s) for s in slots]


def _write_raw(fam, out_dir):
    rng = fam.rng("raw")
    lengths = _block_lengths(rng, RAW_LENGTHS, RAW_TWEETS)
    lines = []
    for i, length in enumerate(lengths):
        if i % 13 == 6:
            n_drugs = 0
        elif i % 29 == 11:
            n_drugs = 2
        else:
            n_drugs = 1
        picks = rng.choice(DRUGS, size=n_drugs, replace=False)
        toks, _ = _content(fam, rng, length, [fam.drugs[int(k)] for k in picks])
        for _ in range(i % 3):  # stopwords, removed by preprocessing
            stop = STOPWORDS_USED[int(rng.integers(0, len(STOPWORDS_USED)))]
            toks.insert(int(rng.integers(0, len(toks) + 1)), stop)
        if i % 17 == 3:  # a non-ASCII token that normalizes away
            toks.insert(int(rng.integers(0, len(toks) + 1)), "\U0001F637")
        lines.append(f"t{i:06d}\t{' '.join(toks)}\n")
    _write_text(os.path.join(out_dir, "tweets.tsv"), "".join(lines))
    _write_text(os.path.join(out_dir, "drugs.txt"), "".join(d + "\n" for d in fam.drugs))

    vectors = fam.vectors()
    rows = [int(fam.rank[r]) for r in range(EMB_ROWS_FROM_CORPUS)]
    rows += list(range(WORDS, WORDS + EXTRA_WORDS))
    fmt = " ".join(["%.5f"] * EMB)
    with open(os.path.join(out_dir, "embeddings.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(rows)} {EMB}\n")
        for wid in rows:
            fh.write(fam.words[wid] + " " + fmt % tuple(vectors[wid]) + "\n")


def _write_conll(fam, out_dir, name, n):
    rng = fam.rng(name)
    lines = []
    for length in _block_lengths(rng, LABELED_LENGTHS, n):
        n_drugs = 1 if rng.random() < 0.5 else 0
        drug = [fam.drugs[int(rng.integers(0, DRUGS))]] * n_drugs
        toks, drug_pos = _content(fam, rng, length, drug)
        tags = ["O"] * length
        for label, prob in (("I-ADR", 0.7), ("I-ADR", 0.2), ("I-IND", 0.3)):
            if rng.random() >= prob:
                continue
            width = int(rng.integers(1, 4))
            start = int(rng.integers(0, length - width + 1))
            span = range(start, start + width)
            # Keep spans apart so that adjacent runs never merge into one.
            lo, hi = max(start - 1, 0), min(start + width + 1, length)
            if all(tags[j] == "O" for j in range(lo, hi)) and not set(span) & set(drug_pos):
                for j in span:
                    tags[j] = label
        lines.extend(f"{t}\t{g}\n" for t, g in zip(toks, tags))
        lines.append("\n")
    _write_text(os.path.join(out_dir, f"{name}.conll"), "".join(lines))


def _glorot(rng, rows, cols):
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def _write_checkpoint(fam, out_dir):
    rng = fam.rng("ckpt")
    vectors = fam.vectors()
    tokens = list(SENTINELS) + [fam.words[int(fam.rank[r])] for r in range(WORDS)]
    emb = np.empty((len(tokens), EMB))
    emb[0] = 0.0
    emb[1 : len(SENTINELS)] = rng.uniform(-0.05, 0.05, size=(len(SENTINELS) - 1, EMB))
    emb[len(SENTINELS) :] = vectors[fam.rank]
    arrays = [("embeddings", emb)]
    for prefix in ("fwd", "bwd"):
        for g in GATES:
            arrays.append((f"{prefix}.w_{g}", _glorot(rng, HIDDEN, HIDDEN)))
            arrays.append((f"{prefix}.i_{g}", _glorot(rng, HIDDEN, EMB)))
            arrays.append((f"{prefix}.b_{g}", np.full(HIDDEN, 1.0 if g == "f" else 0.0)))
    arrays.append(("drug.w", _glorot(rng, DRUGS, 2 * HIDDEN)))
    arrays.append(("drug.b", np.zeros(DRUGS)))
    # A sharper tag head than a fresh init, so predictions mix ADR, IND and O
    # spans the way a trained tagger's do.
    arrays.append(("tag.w", 4.0 * _glorot(rng, 4, 2 * HIDDEN)))
    arrays.append(("tag.b", np.array([0.0, -0.3, 0.6, -3.0])))
    header = {
        "version": 1,
        "seed": fam.family,
        "hidden": HIDDEN,
        "emb": EMB,
        "drug_count": DRUGS,
        "pooling": "mean",
        "gate_biases": True,
        "vocab_tokens": tokens,
        "drug_names": fam.drugs,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(os.path.join(out_dir, "model.ckpt"), "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _write_text(path, content):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


FILES = {
    "raw": ("tweets.tsv", "drugs.txt", "embeddings.txt"),
    "ckpt": ("model.ckpt",),
    "conll": ("train.conll", "test.conll"),
}


def generate(family: int, out_dir: str, parts=PARTS) -> dict:
    """Write the requested parts for ``family`` into ``out_dir`` and return
    ``{file name: sha256}`` of what was written."""
    os.makedirs(out_dir, exist_ok=True)
    fam = _Family(family)
    for part in parts:
        if part == "raw":
            _write_raw(fam, out_dir)
        elif part == "ckpt":
            _write_checkpoint(fam, out_dir)
        elif part == "conll":
            _write_conll(fam, out_dir, "train", TRAIN_TWEETS)
            _write_conll(fam, out_dir, "test", TEST_TWEETS)
        else:
            raise ValueError(f"unknown part {part!r}")
    digests = {}
    for part in parts:
        for name in FILES[part]:
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests
