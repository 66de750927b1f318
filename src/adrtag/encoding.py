"""Inside/Outside tag encoding and span decoding, plus CoNLL-style file IO."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .text import DataError

ADR = "ADR"
IND = "IND"


class AnnotationError(ValueError):
    """Gold annotation violates the encoding contract."""


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
STRING_TO_TAG = {s: t for t, s in TAG_TO_STRING.items()}
_SPAN_LABEL_TO_TAG = {ADR: TagLabel.I_ADR, IND: TagLabel.I_IND}
_TAG_TO_SPAN_LABEL = {TagLabel.I_ADR: ADR, TagLabel.I_IND: IND}


@dataclass(frozen=True, order=True)
class Span:
    """Contiguous token range [start, end) carrying an entity label."""

    start: int
    end: int
    label: str

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise AnnotationError(f"bad span bounds ({self.start}, {self.end})")
        if self.label not in (ADR, IND):
            raise AnnotationError(f"unknown span label {self.label!r}")


def encode(tokens: Sequence[str], spans: Sequence[Span]) -> List[TagLabel]:
    """Tag every token inside a span I-ADR/I-IND and everything else O."""
    tags = [TagLabel.O] * len(tokens)
    prev_end = -1
    prev_span = None
    for span in sorted(spans):
        if span.end > len(tokens):
            raise AnnotationError(f"span {span} exceeds sequence length {len(tokens)}")
        if span.start < prev_end:
            raise AnnotationError(f"overlapping spans {prev_span} and {span}")
        prev_end, prev_span = span.end, span
        for i in range(span.start, span.end):
            tags[i] = _SPAN_LABEL_TO_TAG[span.label]
    return tags


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
    """Read "token TAB tag" lines with blank lines separating tweets."""
    sentences = []
    tokens: List[str] = []
    tags: List[TagLabel] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                if tokens:
                    sentences.append((tokens, tags))
                    tokens, tags = [], []
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}: line {lineno}: expected 'token<TAB>tag'")
            tok, tag = parts
            if tag not in STRING_TO_TAG or tag == "<PAD>":
                raise DataError(f"{path}: line {lineno}: unknown tag {tag!r}")
            tokens.append(tok)
            tags.append(STRING_TO_TAG[tag])
    if tokens:
        sentences.append((tokens, tags))
    return sentences


def write_conll(path, sentences) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, tags in sentences:
            for tok, tag in zip(tokens, tags):
                fh.write(f"{tok}\t{TAG_TO_STRING[TagLabel(tag)]}\n")
            fh.write("\n")
