import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrtag.text import (
    DRUG,
    LINK,
    PAD,
    SENTINELS,
    UNK,
    USER,
    DataError,
    DrugLexicon,
    EmbeddingTable,
    MultipleDrugMentions,
    NoDrugMention,
    TokenizedTweet,
    Vocabulary,
    default_stopwords,
    load_embeddings,
    mask_drug,
    normalize,
    normalize_token,
    remove_stopwords,
    tokenize,
)


class TestNormalize:
    def test_handles_links_mentions_hash(self):
        assert normalize("@JonDoe check http://t.co/x #fun!") == "<USER> check <LINK> fun"

    def test_empty(self):
        assert normalize("") == ""

    def test_non_ascii_stripped(self):
        assert normalize("héllo 😀 world") == "hllo world"

    def test_lowercases_and_collapses_whitespace(self):
        assert normalize("This   DRUG\trocks") == "this drug rocks"

    def test_www_prefix_is_a_link(self):
        assert normalize("see www.example.com now") == "see <LINK> now"

    def test_idempotent_on_examples(self):
        for raw in (
            "@JonDoe check http://t.co/x #fun!",
            "héllo 😀 world",
            "Cymbalta, you're driving me insane",
            "<USER> ugh effexor",
        ):
            once = normalize(raw)
            assert normalize(once) == once

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent(self, raw):
        once = normalize(raw)
        assert normalize(once) == once

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=60))
    def test_output_is_ascii(self, raw):
        assert normalize(raw).isascii()


class TestTokenize:
    def test_whitespace_runs(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_empty(self):
        assert tokenize("") == []

    def test_sentinels_survive(self):
        assert tokenize("<USER> ugh effexor") == ["<USER>", "ugh", "effexor"]


class TestStopwords:
    def test_removal(self):
        assert remove_stopwords(["i", "hate", "the", "drug"], {"i", "the"}) == [
            "hate",
            "drug",
        ]

    def test_empty(self):
        assert remove_stopwords([], {"a"}) == []

    def test_sentinels_protected(self):
        assert remove_stopwords([DRUG], {DRUG.lower(), DRUG}) == [DRUG]

    def test_default_list_is_reasonable(self):
        stop = default_stopwords()
        assert 100 <= len(stop) <= 200
        assert "the" in stop and "effexor" not in stop


class TestMaskDrug:
    @pytest.fixture
    def lexicon(self):
        return DrugLexicon(["effexor", "cymbalta"])

    def test_masks_single_mention(self, lexicon):
        ex = mask_drug(TokenizedTweet(["this", "effexor", "sucks"], "t1"), lexicon)
        assert ex.tokens == ["this", DRUG, "sucks"]
        assert ex.drug_label == 0

    def test_case_insensitive(self, lexicon):
        ex = mask_drug(TokenizedTweet(["Cymbalta", "hurts"], "t2"), lexicon)
        assert ex.drug_label == 1

    def test_two_drugs_rejected(self, lexicon):
        with pytest.raises(MultipleDrugMentions):
            mask_drug(TokenizedTweet(["cymbalta", "and", "effexor"], "t3"), lexicon)

    def test_no_drug_rejected(self, lexicon):
        with pytest.raises(NoDrugMention):
            mask_drug(TokenizedTweet(["feeling", "fine"], "t4"), lexicon)

    def test_mask_disabled_keeps_token(self, lexicon):
        ex = mask_drug(
            TokenizedTweet(["this", "effexor", "sucks"], "t5"), lexicon, mask=False
        )
        assert ex.tokens == ["this", "effexor", "sucks"]
        assert ex.drug_label == 0

    def test_postconditions(self, lexicon):
        ex = mask_drug(TokenizedTweet(["a", "effexor", "b"], "t6"), lexicon)
        assert sum(t == DRUG for t in ex.tokens) == 1
        assert not any(t in lexicon for t in ex.tokens if t != DRUG)


class TestVocabulary:
    def test_frequency_order(self):
        v = Vocabulary.build([["a", "a", "b"]], cap=1)
        assert "a" in v and "b" not in v
        assert len(v) == len(SENTINELS) + 1

    def test_tie_broken_lexicographically(self):
        v = Vocabulary.build([["b", "a"]], cap=1)
        assert "a" in v and "b" not in v

    def test_cap_larger_than_distinct(self):
        v = Vocabulary.build([["x", "y"]], cap=100)
        assert "x" in v and "y" in v

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.build([[]], cap=5)

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            Vocabulary.build([["a"]], cap=0)

    def test_pad_is_index_zero_and_unk_fallback(self):
        v = Vocabulary.build([["a"]], cap=5)
        assert v.index(PAD) == 0 == v.pad_index
        assert v.index("never-seen") == v.unk_index

    def test_retained_frequency_dominates_discarded(self):
        rng = np.random.default_rng(3)
        stream = [f"t{j}" for j in rng.integers(0, 30, size=400)]
        from collections import Counter

        counts = Counter(stream)
        v = Vocabulary.build([stream], cap=10)
        kept = {t for t in counts if t in v}
        dropped = set(counts) - kept
        assert len(v) <= 10 + len(SENTINELS)
        if kept and dropped:
            assert min(counts[t] for t in kept) >= max(counts[t] for t in dropped)

    def test_save_load_round_trip(self, tmp_path):
        v = Vocabulary.build([["a", "b", "a"]], cap=5)
        path = tmp_path / "vocab.txt"
        v.save(path)
        w = Vocabulary.load(path)
        assert w.index_to_token == v.index_to_token

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        Vocabulary.build([["a"]], cap=5).save(path)
        before = path.read_bytes()
        bad = Vocabulary(list(SENTINELS) + ["fine", "lone\ud800surrogate"])
        with pytest.raises(UnicodeEncodeError):
            bad.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


def test_normalize_token_alignment():
    assert normalize_token("@BLENDOS") == USER
    assert normalize_token("Weight") == "weight"
    assert normalize_token("😀") == UNK


def write_embedding_file(path, rows, dim):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {dim}\n")
        for tok, vec in rows:
            fh.write(tok + " " + " ".join(str(x) for x in vec) + "\n")


class TestLoadEmbeddings:
    def test_full_coverage(self, tmp_path):
        v = Vocabulary.build([["alpha", "beta"]], cap=5)
        path = tmp_path / "emb.txt"
        write_embedding_file(
            path, [("alpha", [1.0, 2.0]), ("beta", [3.0, 4.0])], dim=2
        )
        table = load_embeddings(path, v, seed=0)
        assert table.coverage == 1.0
        assert np.array_equal(table.vectors[v.index("alpha")], [1.0, 2.0])
        assert np.array_equal(table.vectors[v.pad_index], [0.0, 0.0])

    def test_missing_token_random_but_reproducible(self, tmp_path):
        v = Vocabulary.build([["alpha", "beta"]], cap=5)
        path = tmp_path / "emb.txt"
        write_embedding_file(path, [("alpha", [1.0, 2.0])], dim=2)
        t1 = load_embeddings(path, v, seed=7)
        t2 = load_embeddings(path, v, seed=7)
        row = t1.vectors[v.index("beta")]
        assert np.all(np.abs(row) <= 0.05)
        assert np.array_equal(t1.vectors, t2.vectors)
        assert t1.coverage == 0.5

    def test_dimension_mismatch_names_line(self, tmp_path):
        v = Vocabulary.build([["alpha"]], cap=5)
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nalpha 1.0 2.0\n")
        with pytest.raises(DataError, match="line 2"):
            load_embeddings(path, v)

    @pytest.mark.parametrize("line", ["foo 1.0 nan", "foo inf -inf"])
    def test_non_finite_value_names_line(self, tmp_path, line):
        v = Vocabulary.build([["alpha", "foo"]], cap=5)
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\nalpha 1.0 2.0\n{line}\n")
        with pytest.raises(DataError, match=rf"emb\.txt: line 3: non-finite"):
            load_embeddings(path, v)

    @pytest.mark.parametrize("count", [3, 1])
    def test_header_row_count_must_match(self, tmp_path, count):
        v = Vocabulary.build([["alpha", "beta", "gamma"]], cap=5)
        path = tmp_path / "emb.txt"
        path.write_text(f"{count} 2\nalpha 1.0 2.0\nbeta 3.0 4.0\n")
        with pytest.raises(DataError, match=rf"emb\.txt: header says {count} rows, file has 2"):
            load_embeddings(path, v)

    def test_duplicate_token_names_line_and_token(self, tmp_path):
        v = Vocabulary.build([["alpha", "beta"]], cap=5)
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nalpha 1.0 2.0\nbeta 3.0 4.0\nalpha 5.0 6.0\n")
        with pytest.raises(DataError, match=r"emb\.txt: line 4: duplicate token 'alpha'"):
            load_embeddings(path, v)

    def test_bad_header(self, tmp_path):
        v = Vocabulary.build([["alpha"]], cap=5)
        path = tmp_path / "emb.txt"
        path.write_text("not a header\n")
        with pytest.raises(DataError):
            load_embeddings(path, v)

    def test_every_index_has_finite_row(self, tmp_path):
        v = Vocabulary.build([["alpha", "beta", "gamma"]], cap=5)
        path = tmp_path / "emb.txt"
        write_embedding_file(path, [("beta", [0.5, -0.5])], dim=2)
        table = load_embeddings(path, v, seed=1)
        assert table.vectors.shape == (len(v), 2)
        assert np.all(np.isfinite(table.vectors))
