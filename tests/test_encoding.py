import numpy as np
import pytest
from reference import encode

from adrtag.encoding import (
    ADR,
    IND,
    DataError,
    Span,
    TagLabel,
    decode_spans,
    read_conll,
)


def random_span_set(rng, n_tokens, adjacent_ok=False):
    """Disjoint spans; with adjacent_ok=False, same-label neighbors are also
    separated by at least one gap token, so encode/decode round-trips."""
    spans = []
    pos = 0
    while pos < n_tokens:
        if rng.random() < 0.35:
            end = min(n_tokens, pos + int(rng.integers(1, 4)))
            label = ADR if rng.random() < 0.7 else IND
            spans.append(Span(pos, end, label))
            pos = end + (0 if adjacent_ok else 1)
        else:
            pos += 1
    return spans


class TestEncode:
    def test_inside_outside_example(self):
        tokens = "because weight gain is not cool".split()
        tags = encode(tokens, [Span(1, 3, ADR)])
        assert tags == [
            TagLabel.O,
            TagLabel.I_ADR,
            TagLabel.I_ADR,
            TagLabel.O,
            TagLabel.O,
            TagLabel.O,
        ]

    def test_no_spans_all_outside(self):
        assert encode(["a", "b"], []) == [TagLabel.O, TagLabel.O]

    def test_whole_sequence_span(self):
        assert encode(["a", "b"], [Span(0, 2, ADR)]) == [TagLabel.I_ADR] * 2

    def test_indication_label(self):
        assert encode(["a"], [Span(0, 1, IND)]) == [TagLabel.I_IND]


class TestDecode:
    def test_single_run(self):
        tags = [TagLabel.O, TagLabel.I_ADR, TagLabel.I_ADR, TagLabel.O]
        assert decode_spans(tags) == [Span(1, 3, ADR)]

    def test_label_change_splits(self):
        assert decode_spans([TagLabel.I_ADR, TagLabel.I_IND]) == [
            Span(0, 1, ADR),
            Span(1, 2, IND),
        ]

    def test_all_outside(self):
        assert decode_spans([TagLabel.O] * 4) == []

    def test_pad_breaks_runs(self):
        tags = [TagLabel.I_ADR, TagLabel.PAD, TagLabel.I_ADR]
        assert decode_spans(tags) == [Span(0, 1, ADR), Span(2, 3, ADR)]

    def test_output_sorted_and_disjoint(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            tags = [TagLabel(int(t)) for t in rng.integers(0, 4, size=12)]
            spans = decode_spans(tags)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start


class TestRoundTrip:
    def test_encode_decode_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 15))
            spans = random_span_set(rng, n)
            tokens = ["x"] * n
            assert decode_spans(encode(tokens, spans)) == sorted(spans)

    def test_adjacent_same_label_spans_merge(self):
        # a documented property of Inside/Outside encoding
        tokens = ["a", "b"]
        spans = [Span(0, 1, ADR), Span(1, 2, ADR)]
        assert decode_spans(encode(tokens, spans)) == [Span(0, 2, ADR)]


class TestConllIO:
    def test_reads_sentences(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("ugh\tO\nweight\tI-ADR\ngain\tI-ADR\n\n\nfine\tI-IND\n")
        assert read_conll(path) == [
            (["ugh", "weight", "gain"], [TagLabel.O, TagLabel.I_ADR, TagLabel.I_ADR]),
            (["fine"], [TagLabel.I_IND]),
        ]

    def test_unknown_tag_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ugh\tO\nweight\tB-ADR\n")
        with pytest.raises(DataError, match="line 2"):
            read_conll(path)

    def test_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("just-a-token\n")
        with pytest.raises(DataError, match="line 1"):
            read_conll(path)

    def test_pad_tag_rejected_in_files(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("x\t<PAD>\n")
        with pytest.raises(DataError):
            read_conll(path)
