"""Tweet normalization, tokenization, drug masking, vocabulary, embeddings."""

from __future__ import annotations

import itertools
import string
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError
from .files import reading

PAD = "<PAD>"
UNK = "<UNK>"
LINK = "<LINK>"
USER = "<USER>"
DRUG = "<DRUG>"
SENTINELS = (PAD, UNK, LINK, USER, DRUG)
_PROTECTED = frozenset(SENTINELS)

# Deletes every ASCII character but lowercase letters and digits.
_DROP_NON_ALNUM = str.maketrans(
    "", "", "".join(c for c in map(chr, range(128))
                    if c not in string.ascii_lowercase + string.digits)
)


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
    """A tweet with its masked drug mention and the drug's catalog index."""

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
        if not tok.isascii():
            tok = tok.encode("ascii", "ignore").decode("ascii")
            if not tok:
                continue
        elif tok.isalnum():  # a plain word: nothing to drop, no sentinel, link or handle
            out.append(tok.lower())
            continue
        elif tok in _PROTECTED:
            out.append(tok)
            continue
        low = tok.lower()
        if low.startswith(("http://", "https://", "www.")):
            out.append(LINK)
        elif tok[0] == "@" and (tok[1:2].isalnum() or tok[1:2] == "_"):
            out.append(USER)
        else:
            cleaned = low.translate(_DROP_NON_ALNUM)
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
    stop = stopwords if isinstance(stopwords, (set, frozenset)) else set(stopwords)
    return [t for t in tokens if t in _PROTECTED or t not in stop]


def default_stopwords() -> frozenset:
    """The small English stopword list shipped with the package."""
    return load_stopwords(resources.files("adrtag.data").joinpath("stopwords.txt"))


def _read_words(path, kind: str, use: str) -> List[Tuple[int, str, str]]:
    """(line number, word, token) for each non-blank line of ``path``: one
    word, normalized as tweet tokens are. A word that normalizes to nothing or
    to a sentinel could never ``use``, and is refused, naming the line."""
    words = []
    with reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            word = line.strip()
            if not word:
                continue
            if len(word.split()) > 1:
                raise DataError(f"{path}: line {lineno}: {kind} {word!r} holds whitespace")
            token = normalize(word)
            if not token or token in _PROTECTED:
                became = f"the sentinel {token}" if token else "no token"
                raise DataError(f"{path}: line {lineno}: {kind} {word!r} normalizes to "
                                f"{became}, so it can never {use}")
            words.append((lineno, word, token))
    return words


def load_stopwords(path) -> frozenset:
    """One word per line, normalized as tweet tokens are, so ``The`` removes
    ``the``; blank lines are skipped."""
    return frozenset(token for _, _, token in _read_words(path, "stopword", "be removed"))


class DrugLexicon:
    """Catalog of single-token drug names; position in the file is the label.
    The names must be distinct and normalized, as :meth:`load` makes them."""

    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}

    def __len__(self):
        return len(self.names)

    @classmethod
    def load(cls, path) -> "DrugLexicon":
        """One name per line, normalized as tweet tokens are, so ``Co-Codamol``
        names the token ``cocodamol``; blank lines are skipped. Two lines that
        normalize to one name are refused."""
        first = {}
        for lineno, word, name in _read_words(path, "drug name", "match a tweet token"):
            if first.setdefault(name, lineno) != lineno:
                raise DataError(f"{path}: line {lineno}: duplicate drug name {word!r} "
                                f"(as line {first[name]})")
        return cls(list(first))


def mask_drug(tweet: TokenizedTweet, lexicon: DrugLexicon) -> DrugContextExample:
    """Replace the tweet's single drug mention with the DRUG sentinel.

    Tweets with zero or more than one lexicon match are rejected.
    """
    hits = [i for i, t in enumerate(tweet.tokens) if t.lower() in lexicon.index]
    if not hits:
        raise NoDrugMention(tweet.source_id)
    if len(hits) > 1:
        raise MultipleDrugMentions(tweet.source_id)
    pos = hits[0]
    label = lexicon.index[tweet.tokens[pos].lower()]
    tokens = list(tweet.tokens)
    tokens[pos] = DRUG
    return DrugContextExample(tokens=tokens, drug_label=label, source_id=tweet.source_id)


class Vocabulary:
    """Token/index bijection with reserved sentinel slots (PAD is index 0)."""

    def __init__(self, tokens: Sequence[str]):
        self.index_to_token = list(tokens)
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}
        if (len(self.token_to_index) != len(self.index_to_token)
                or self.index_to_token[: len(SENTINELS)] != list(SENTINELS)
                or " ".join(self.index_to_token).split() != self.index_to_token):
            i, problem = _vocabulary_fault(self.index_to_token)
            raise DataError(f"entry {i + 1}: {problem}")

    @classmethod
    def build(
        cls, corpora: Iterable[Iterable[str]], cap: int = 15000
    ) -> "Vocabulary":
        """Keep the ``cap`` most frequent tokens; ties break lexicographically."""
        if cap < 1:
            raise ValueError("vocabulary cap must be >= 1")
        counts = Counter(itertools.chain.from_iterable(corpora))
        for sentinel in SENTINELS:
            counts.pop(sentinel, None)
        if not counts:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        kept = sorted(counts, key=lambda t: (-counts[t], t))[:cap]
        return cls(list(SENTINELS) + kept)

    def __len__(self):
        return len(self.index_to_token)

    @property
    def unk_index(self) -> int:
        return self.token_to_index[UNK]

    def index(self, token: str) -> int:
        """Index of ``token``, falling back to the UNK sentinel."""
        return self.token_to_index.get(token, self.unk_index)

    def indices(self, tokens: Sequence[str]) -> List[int]:
        get, unk = self.token_to_index.get, self.unk_index
        return [get(t, unk) for t in tokens]

    def write(self, fh):
        """Write one token per line to the open text file ``fh``."""
        for tok in self.index_to_token:
            fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with reading(path) as fh:
            numbered = [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=1)
                        if line.rstrip("\n")]
        tokens = [tok for _, tok in numbered]
        try:
            return cls(tokens)
        except DataError:
            i, problem = _vocabulary_fault(tokens)
            where = f"line {numbered[i][0]}" if i < len(numbered) else "end of file"
            raise DataError(f"{path}: {where}: {problem}") from None


def _vocabulary_fault(tokens: Sequence[str]) -> Tuple[int, str]:
    """The position and description of the first token that breaks a
    vocabulary's rules: the sentinels first, each token one word, and no
    token twice. ``len(tokens)`` stands for a sentinel missing at the end."""
    seen = set()
    for i, tok in enumerate(tokens):
        if i < len(SENTINELS) and tok != SENTINELS[i]:
            return i, f"expected sentinel {SENTINELS[i]!r}, got {tok!r}"
        if tok.split() != [tok]:
            return i, f"token {tok!r} is empty or holds whitespace"
        if tok in seen:
            return i, f"duplicate token {tok!r}"
        seen.add(tok)
    return len(tokens), f"missing sentinel {SENTINELS[len(tokens)]!r}"


@dataclass
class EmbeddingTable:
    """Frozen word vectors aligned with a vocabulary (row i = token i)."""

    vectors: np.ndarray
    coverage: float


# Rows of an embeddings file parsed per np.loadtxt call. The loader holds the
# (V, D) table, one block and 8 bytes a row for the duplicate check, not the
# file's rows. At 400 values a row, 1024 parsed as fast as 4096 with half the
# peak above the table.
_BLOCK_LINES = 1024
# loadtxt strips these from a field as whitespace; the line-by-line parse, like
# Python's float, rejects them.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def load_embeddings(path, vocab: Vocabulary, seed: int = 0) -> EmbeddingTable:
    """Load plain-text word vectors for ``vocab``.

    File format: a "V D" header line (V >= 0, D >= 1), then V lines of
    "token v1 ... vD". Only the rows of vocabulary tokens are kept, but every
    row is checked: its width, its floats, that they are finite, that its token
    is new, and the header's row count. Vocabulary tokens missing from the file
    get rows drawn uniformly from [-0.05, 0.05] using ``seed``; the PAD row is
    all zeros. Coverage is the fraction of non-sentinel vocabulary tokens found
    in the file.
    """
    with reading(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: header must be 'V D'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"{path}: header must be two integers") from exc
        if count < 0 or dim < 1:
            raise DataError(f"{path}: header 'V D' needs V >= 0 and D >= 1, got {count} {dim}")
        # Allocated once rows of width D have been read, so that a header that
        # overstates D is a data error naming a line, not a failed allocation.
        vectors = None
        in_file = np.zeros(len(vocab), dtype=bool)
        seen: List[np.ndarray] = []  # the hashes of the tokens read so far, in sorted runs
        first = 2  # the line number of the block's first row
        while lines := list(itertools.islice(fh, _BLOCK_LINES)):
            tokens, values = (_parse_block(lines, dim, seen)
                              or _parse_lines(path, lines, first, dim, seen))
            if vectors is None:
                vectors = np.zeros((len(vocab), dim), dtype=np.float64)
            _add_run(seen, _sorted_hashes(tokens))
            index = np.fromiter((vocab.token_to_index.get(t, 0) for t in tokens),
                                dtype=np.intp, count=len(tokens))
            keep = index > 0  # 0 is PAD, whose row stays zero, or not in the vocabulary
            vectors[index[keep]] = values[keep]
            in_file[index[keep]] = True
            first += len(lines)
    if first - 2 != count:
        raise DataError(f"{path}: header says {count} rows, file has {first - 2}")
    if vectors is None:
        vectors = np.zeros((len(vocab), dim), dtype=np.float64)

    # One draw for every missing row gives the stream per-row draws would, in
    # row order; PAD, index 0, keeps its zero row.
    missing = ~in_file
    missing[0] = False
    vectors[missing] = np.random.default_rng(seed).uniform(-0.05, 0.05, size=(missing.sum(), dim))
    words = in_file[len(SENTINELS):]  # a Vocabulary holds each sentinel once, first
    return EmbeddingTable(vectors=vectors, coverage=float(words.mean()) if words.size else 0.0)


def _sorted_hashes(tokens: Sequence[str]) -> np.ndarray:
    return np.sort(np.fromiter(map(hash, tokens), dtype=np.int64, count=len(tokens)))


def _add_run(seen: List[np.ndarray], hashes: np.ndarray):
    """Add the sorted ``hashes`` to the sorted runs ``seen``, merged like a
    binary counter: a run no longer than the new one is merged into it, so
    there are O(log n) runs, each hash is copied O(log n) times, and a merge
    holds at most twice the hashes read so far."""
    while seen and len(seen[-1]) <= len(hashes):
        hashes = np.concatenate((seen.pop(), hashes))
        hashes.sort()
    seen.append(hashes)


def _hash_seen(seen: List[np.ndarray], hashes) -> np.ndarray:
    """Which of ``hashes`` the sorted runs ``seen`` hold."""
    found = np.zeros(np.shape(hashes), dtype=bool)
    for run in seen:  # never empty
        found |= run[np.minimum(np.searchsorted(run, hashes), len(run) - 1)] == hashes
    return found


def _skip_token(field: str) -> float:
    return 0.0


def _parse_block(
    lines: List[str], dim: int, seen: List[np.ndarray]
) -> Optional[Tuple[List[str], np.ndarray]]:
    """The tokens and (n, dim) values of a block of rows, parsed by numpy's C
    parser; None if any row might fail a check, so that the caller re-parses
    the block line by line."""
    # loadtxt skips blank lines, which the line-by-line parse rejects.
    if "\n" in lines:
        return None
    text = "".join(lines)
    if any(c in text for c in _LOADTXT_ONLY_SPACE):
        return None
    del text  # as large as the block, so freed before the parse
    try:
        # Column 0, the token, is parsed too, so that loadtxt checks each row's
        # width; the converter skips its float parse.
        parsed = np.loadtxt(lines, delimiter=" ", converters={0: _skip_token},
                            comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if parsed.shape != (len(lines), dim + 1) or not np.isfinite(parsed).all():
        return None
    values = parsed[:, 1:]
    tokens = [line[: line.index(" ")] for line in lines]
    hashes = _sorted_hashes(tokens)
    if (hashes[1:] == hashes[:-1]).any() or _hash_seen(seen, hashes).any():
        return None
    return tokens, values


def _parse_lines(
    path, lines: List[str], first: int, dim: int, seen: List[np.ndarray]
) -> Tuple[List[str], np.ndarray]:
    """A block of rows parsed one line at a time, raising the first bad
    line's error. ``first`` is the line number of ``lines[0]``."""
    tokens: List[str] = []
    block = set()
    rows = []
    for lineno, line in enumerate(lines, start=first):
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
        if parts[0] in block or _in_earlier_block(path, parts[0], first, seen):
            raise DataError(f"{path}: line {lineno}: duplicate token {parts[0]!r}")
        block.add(parts[0])
        tokens.append(parts[0])
        rows.append(vec)
    return tokens, np.array(rows)


def _in_earlier_block(path, token: str, first: int, seen: List[np.ndarray]) -> bool:
    """Whether a row before line ``first`` has ``token``. Only a token whose
    hash is in ``seen`` needs the file read again, to rule out a collision."""
    if not _hash_seen(seen, hash(token)):
        return False
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return any(line[: line.index(" ")] == token
                   for line in itertools.islice(fh, first - 2))
