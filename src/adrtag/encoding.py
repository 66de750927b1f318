"""Inside/Outside tag encoding and span decoding, plus the CoNLL-style reader."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import DataError
from .files import lines

ADR = "ADR"
IND = "IND"


class TagLabel(enum.IntEnum):
    I_ADR = 0
    I_IND = 1
    O = 2
    PAD = 3


TAG_TO_STRING = {
    TagLabel.I_ADR: "I-ADR",
    TagLabel.I_IND: "I-IND",
    TagLabel.O: "O",
    TagLabel.PAD: "<PAD>",
}
# Only the gold tags can be read: <PAD> marks no token of an input file.
STRING_TO_TAG = {TAG_TO_STRING[t]: t for t in (TagLabel.I_ADR, TagLabel.I_IND, TagLabel.O)}
_TAG_TO_SPAN_LABEL = {TagLabel.I_ADR: ADR, TagLabel.I_IND: IND}


@dataclass(frozen=True, order=True)
class Span:
    """Contiguous token range [start, end) carrying an entity label."""

    start: int
    end: int
    label: str


def decode_spans(tags: Sequence[TagLabel]) -> List[Span]:
    """Maximal runs of one I-* label become spans; O and PAD break runs."""
    spans = []
    start = None
    current = None
    for i, tag in enumerate(tags):
        label = _TAG_TO_SPAN_LABEL.get(tag)
        if label != current:
            if current is not None:
                spans.append(Span(start, i, current))
            start = i if label is not None else None
            current = label
    if current is not None:
        spans.append(Span(start, len(tags), current))
    return spans


def read_conll(path) -> List[Tuple[List[str], List[TagLabel]]]:
    """Read "token TAB tag" lines with blank lines separating tweets. A token
    is one non-empty word: it holds no whitespace, which normalizing it would
    split off or map to UNK."""
    sentences = []
    tokens: List[str] = []
    tags: List[TagLabel] = []
    for lineno, line in lines(path):
        if not line.strip():
            if tokens:
                sentences.append((tokens, tags))
                tokens, tags = [], []
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}: line {lineno}: expected 'token<TAB>tag'")
        tok, tag = parts
        if tok.split() != [tok]:
            raise DataError(f"{path}: line {lineno}: token {tok!r} is empty or holds "
                            "whitespace")
        if tag not in STRING_TO_TAG:
            raise DataError(f"{path}: line {lineno}: unknown tag {tag!r}")
        tokens.append(tok)
        tags.append(STRING_TO_TAG[tag])
    if tokens:
        sentences.append((tokens, tags))
    return sentences
