"""Tweet normalization, tokenization, drug masking, vocabulary, embeddings."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, List, Sequence

import numpy as np

from .files import atomic_write

PAD = "<PAD>"
UNK = "<UNK>"
LINK = "<LINK>"
USER = "<USER>"
DRUG = "<DRUG>"
SENTINELS = (PAD, UNK, LINK, USER, DRUG)
_PROTECTED = frozenset(SENTINELS)

_MENTION_RE = re.compile(r"@\w")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")


class DataError(ValueError):
    """A data file or record is malformed."""


class TweetRejected(Exception):
    """Base class for tweets excluded from the drug-context corpus."""


class NoDrugMention(TweetRejected):
    pass


class MultipleDrugMentions(TweetRejected):
    pass


@dataclass
class TokenizedTweet:
    tokens: List[str]
    source_id: str


@dataclass
class DrugContextExample:
    """A tweet with its (masked) drug mention and the drug's catalog index."""

    tokens: List[str]
    drug_label: int
    source_id: str


def normalize(raw: str) -> str:
    """Clean one raw tweet into lowercase ASCII words.

    URLs become the LINK sentinel, @-handles the USER sentinel; '#',
    punctuation and every non-ASCII character are dropped; whitespace is
    collapsed. Sentinel tokens pass through unchanged, which makes the
    function idempotent. The result may be empty.
    """
    out = []
    for tok in raw.split():
        if tok in _PROTECTED:
            out.append(tok)
            continue
        tok = tok.encode("ascii", "ignore").decode("ascii")
        if not tok:
            continue
        low = tok.lower()
        if low.startswith(("http://", "https://", "www.")):
            out.append(LINK)
            continue
        if _MENTION_RE.match(tok):
            out.append(USER)
            continue
        cleaned = _NON_ALNUM_RE.sub("", low)
        if cleaned:
            out.append(cleaned)
    return " ".join(out)


def tokenize(text: str) -> List[str]:
    """Split normalized text on whitespace runs."""
    return text.split()


def normalize_token(token: str) -> str:
    """Normalize one pre-tokenized word, preserving 1:1 alignment.

    Labeled data arrives already tokenized with per-token tags, so a token
    that normalizes away entirely maps to UNK instead of being dropped.
    """
    parts = tokenize(normalize(token))
    return parts[0] if parts else UNK


def remove_stopwords(tokens: Sequence[str], stopwords: Iterable[str]) -> List[str]:
    """Drop stopword tokens. Sentinels are never removed."""
    stop = set(stopwords)
    return [t for t in tokens if t in _PROTECTED or t not in stop]


def default_stopwords() -> frozenset:
    """The small English stopword list shipped with the package."""
    text = resources.files("adrtag.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def load_stopwords(path) -> frozenset:
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


class DrugLexicon:
    """Catalog of single-token drug names; position in the file is the label."""

    def __init__(self, names: Sequence[str]):
        self.names = [n.strip().lower() for n in names if n.strip()]
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate drug name in lexicon")
        self.index = {name: i for i, name in enumerate(self.names)}

    def __len__(self):
        return len(self.names)

    def __contains__(self, token):
        return token.lower() in self.index

    @classmethod
    def load(cls, path) -> "DrugLexicon":
        with open(path, encoding="utf-8") as fh:
            return cls(fh.read().splitlines())


def mask_drug(
    tweet: TokenizedTweet, lexicon: DrugLexicon, mask: bool = True
) -> DrugContextExample:
    """Replace the tweet's single drug mention with the DRUG sentinel.

    Tweets with zero or more than one lexicon match are rejected; the
    ``mask=False`` ablation keeps the drug token in place but still requires
    exactly one match to define the label.
    """
    hits = [i for i, t in enumerate(tweet.tokens) if t.lower() in lexicon.index]
    if not hits:
        raise NoDrugMention(tweet.source_id)
    if len(hits) > 1:
        raise MultipleDrugMentions(tweet.source_id)
    pos = hits[0]
    label = lexicon.index[tweet.tokens[pos].lower()]
    tokens = list(tweet.tokens)
    if mask:
        tokens[pos] = DRUG
    return DrugContextExample(tokens=tokens, drug_label=label, source_id=tweet.source_id)


class Vocabulary:
    """Token/index bijection with reserved sentinel slots (PAD is index 0)."""

    def __init__(self, tokens: Sequence[str]):
        self.index_to_token = list(tokens)
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}
        if len(self.token_to_index) != len(self.index_to_token):
            raise DataError("duplicate token in vocabulary")
        if not self.index_to_token[: len(SENTINELS)] == list(SENTINELS):
            raise DataError("vocabulary must start with the sentinel tokens")

    @classmethod
    def build(
        cls, corpora: Iterable[Iterable[str]], cap: int = 15000
    ) -> "Vocabulary":
        """Keep the ``cap`` most frequent tokens; ties break lexicographically."""
        if cap < 1:
            raise ValueError("vocabulary cap must be >= 1")
        counts: Counter = Counter()
        for stream in corpora:
            for tok in stream:
                if tok not in _PROTECTED:
                    counts[tok] += 1
        if not counts:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        kept = sorted(counts, key=lambda t: (-counts[t], t))[:cap]
        return cls(list(SENTINELS) + kept)

    def __len__(self):
        return len(self.index_to_token)

    def __contains__(self, token):
        return token in self.token_to_index

    @property
    def pad_index(self) -> int:
        return 0

    @property
    def unk_index(self) -> int:
        return self.token_to_index[UNK]

    def index(self, token: str) -> int:
        """Index of ``token``, falling back to the UNK sentinel."""
        return self.token_to_index.get(token, self.unk_index)

    def indices(self, tokens: Sequence[str]) -> List[int]:
        return [self.index(t) for t in tokens]

    def save(self, path):
        with atomic_write(path) as fh:
            for tok in self.index_to_token:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens)


@dataclass
class EmbeddingTable:
    """Frozen word vectors aligned with a vocabulary (row i = token i)."""

    vectors: np.ndarray
    coverage: float


def load_embeddings(path, vocab: Vocabulary, seed: int = 0) -> EmbeddingTable:
    """Load plain-text word vectors for ``vocab``.

    File format: a "V D" header line, then V lines of "token v1 ... vD".
    Vocabulary tokens missing from the file get rows drawn uniformly from
    [-0.05, 0.05] using ``seed``; the PAD row is all zeros. Coverage is the
    fraction of non-sentinel vocabulary tokens found in the file.
    """
    rows = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: header must be 'V D'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"{path}: header must be two integers") from exc
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise DataError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(parts) - 1}"
                )
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad float") from exc
            if not np.isfinite(vec).all():
                raise DataError(f"{path}: line {lineno}: non-finite value (nan or inf)")
            if parts[0] in rows:
                raise DataError(f"{path}: line {lineno}: duplicate token {parts[0]!r}")
            rows[parts[0]] = vec
    if len(rows) != count:
        raise DataError(f"{path}: header says {count} rows, file has {len(rows)}")

    rng = np.random.default_rng(seed)
    vectors = np.zeros((len(vocab), dim), dtype=np.float64)
    found = 0
    vocab_words = 0
    for i, tok in enumerate(vocab.index_to_token):
        if tok not in _PROTECTED:
            vocab_words += 1
        if tok == PAD:
            continue
        if tok in rows:
            vectors[i] = rows[tok]
            if tok not in _PROTECTED:
                found += 1
        else:
            vectors[i] = rng.uniform(-0.05, 0.05, size=dim)
    coverage = found / vocab_words if vocab_words else 0.0
    return EmbeddingTable(vectors=vectors, coverage=coverage)
