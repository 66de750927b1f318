"""Synthetic data generators shared across the test suite.

The transfer corpus ties a cue token to both the masked drug identity
(unlabeled examples) and the position of the ADR span (labeled examples),
so an encoder pretrained on the unlabeled corpus carries information the
small labeled set does not.
"""

import numpy as np

from adrtag.encoding import TagLabel
from adrtag.text import DRUG, PAD, SENTINELS, Vocabulary

FILLERS = [f"w{i}" for i in range(15)]


def make_cues(n):
    return [f"cue{i}" for i in range(n)]


def make_vocab(n_cues):
    return Vocabulary(list(SENTINELS) + FILLERS + make_cues(n_cues))


def make_embeddings(vocab, dim, seed=42):
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-0.5, 0.5, size=(len(vocab), dim))
    vectors[vocab.index(PAD)] = 0.0
    return vectors


def unlabeled_examples(vocab, n_cues, n, seed, prefix="u"):
    """Masked drug-context examples: the cue token is followed by the DRUG
    sentinel, and the cue index is the drug label."""
    cues = make_cues(n_cues)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        length = int(rng.integers(5, 9))
        toks = [FILLERS[j] for j in rng.integers(0, len(FILLERS), length)]
        pos = int(rng.integers(0, length - 1))
        k = int(rng.integers(0, n_cues))
        toks[pos] = cues[k]
        toks[pos + 1] = DRUG
        out.append((vocab.indices(toks), k, f"{prefix}{i}"))
    return out


def labeled_examples(vocab, n_cues, n, seed, prefix="l", cue_pool=None):
    """Tagging examples: the token right after the cue is the ADR span."""
    cues = make_cues(n_cues)
    pool = cue_pool if cue_pool is not None else list(range(n_cues))
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        length = int(rng.integers(5, 9))
        toks = [FILLERS[j] for j in rng.integers(0, len(FILLERS), length)]
        pos = int(rng.integers(0, length - 1))
        k = pool[int(rng.integers(0, len(pool)))]
        toks[pos] = cues[k]
        tags = [int(TagLabel.O)] * length
        tags[pos + 1] = int(TagLabel.I_ADR)
        out.append((vocab.indices(toks), tags, f"{prefix}{i}"))
    return out
