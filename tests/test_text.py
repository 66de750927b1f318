import re
import string
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrtag import text as text_module
from adrtag.files import atomic_write
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
    load_stopwords,
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

    @settings(max_examples=500, deadline=None)
    @example("@_handle @@x @ x _@x @é1 www.X HTTP://X <USER>é <LINK>! a_b 1\u00a02\u30003")
    @given(st.lists(st.one_of(
        st.text(max_size=6),
        st.sampled_from([*SENTINELS, "http://", "HTTPS://", "www.", "@", "_", "#", "0", "9",
                         "A", "z", "-", "'", "é", "😀", " ", "\t", "\u00a0", "\u3000"]),
    ), max_size=12).map("".join))
    def test_matches_reference(self, raw):
        assert normalize(raw) == reference.normalize(raw)


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

    def test_any_iterable_of_stopwords(self):
        tokens = ["i", "hate", "the", "drug"]
        assert remove_stopwords(tokens, iter(["i", "the"])) == ["hate", "drug"]
        assert remove_stopwords(tokens, frozenset({"i", "the"})) == ["hate", "drug"]

    def test_default_list_is_reasonable(self):
        stop = default_stopwords()
        assert 100 <= len(stop) <= 200
        assert "the" in stop and "effexor" not in stop

    def test_default_list_is_normalized(self):
        """Tweet tokens are normalized before stopwords are removed, so a
        shipped word not in normalized form would never match one."""
        assert sorted(w for w in default_stopwords() if normalize(w) != w) == []

    # "!!!" and "http://x" are rows of test_cli.py's FAILURES table
    @pytest.mark.parametrize("word", ["@bob", USER])
    def test_file_word_that_can_never_match_is_refused(self, tmp_path, word):
        path = tmp_path / "stop.txt"
        path.write_text(f"the\n{word}\n")
        message = f"{path}: line 2: stopword {word!r} normalizes to the sentinel {USER}, so it"
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            load_stopwords(path)


class TestMaskDrug:
    @pytest.fixture
    def lexicon(self):
        return DrugLexicon(["effexor", "cymbalta"])

    def test_load_names_duplicate_line_and_name(self, tmp_path):
        path = tmp_path / "drugs.txt"
        path.write_text("aspirin\n\nibuprofen\n Aspirin\n")
        with pytest.raises(DataError) as exc:
            DrugLexicon.load(path)
        assert str(exc.value) == f"{path}: line 4: duplicate drug name 'Aspirin' (as line 1)"

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

    def test_postconditions(self, lexicon):
        ex = mask_drug(TokenizedTweet(["a", "effexor", "b"], "t6"), lexicon)
        assert sum(t == DRUG for t in ex.tokens) == 1
        assert not any(t.lower() in lexicon.index for t in ex.tokens if t != DRUG)


class TestVocabulary:
    def test_frequency_order(self):
        v = Vocabulary.build([["a", "a", "b"]], cap=1)
        assert "a" in v.token_to_index and "b" not in v.token_to_index
        assert len(v) == len(SENTINELS) + 1

    def test_tie_broken_lexicographically(self):
        v = Vocabulary.build([["b", "a"]], cap=1)
        assert "a" in v.token_to_index and "b" not in v.token_to_index

    def test_cap_larger_than_distinct(self):
        v = Vocabulary.build([["x", "y"]], cap=100)
        assert "x" in v.token_to_index and "y" in v.token_to_index

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.build([[]], cap=5)

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            Vocabulary.build([["a"]], cap=0)

    def test_pad_is_index_zero_and_unk_fallback(self):
        v = Vocabulary.build([["a"]], cap=5)
        assert v.index(PAD) == 0
        assert v.index("never-seen") == v.unk_index

    def test_retained_frequency_dominates_discarded(self):
        rng = np.random.default_rng(3)
        stream = [f"t{j}" for j in rng.integers(0, 30, size=400)]
        from collections import Counter

        counts = Counter(stream)
        v = Vocabulary.build([stream], cap=10)
        kept = {t for t in counts if t in v.token_to_index}
        dropped = set(counts) - kept
        assert len(v) <= 10 + len(SENTINELS)
        if kept and dropped:
            assert min(counts[t] for t in kept) >= max(counts[t] for t in dropped)

    def test_save_load_round_trip(self, tmp_path):
        v = Vocabulary.build([["a", "b", "a"]], cap=5)
        path = tmp_path / "vocab.txt"
        with atomic_write(path) as fh:
            v.write(fh)
        w = Vocabulary.load(path)
        assert w.index_to_token == v.index_to_token

    @pytest.mark.parametrize("lines, where", [
        ([*SENTINELS, "a", "", "b", "a"], "line 9: duplicate token 'a'"),
        (["<PAD>", "<UNK>", "foo", "<USER>"], "line 3: expected sentinel '<LINK>', got 'foo'"),
        (["<PAD>", "", "<UNK>"], "end of file: missing sentinel '<LINK>'"),
        ([*SENTINELS, "a", "", "u\th"], "line 8: token 'u\\th' is empty or holds whitespace"),
    ])
    def test_load_names_file_line_and_token(self, tmp_path, lines, where):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            Vocabulary.load(path)
        assert str(exc.value) == f"{path}: {where}"

    def test_constructor_names_the_entry(self):
        with pytest.raises(DataError, match=r"^entry 7: duplicate token 'a'$"):
            Vocabulary([*SENTINELS, "a", "a"])

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        with atomic_write(path) as fh:
            Vocabulary.build([["a"]], cap=5).write(fh)
        before = path.read_bytes()
        bad = Vocabulary(list(SENTINELS) + ["fine", "lone\ud800surrogate"])
        with pytest.raises(UnicodeEncodeError), atomic_write(path) as fh:
            bad.write(fh)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]


_VOCAB_TOKENS = st.one_of(st.sampled_from([*SENTINELS, "a", "b", "ab", "A", ""]),
                          st.text(max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_VOCAB_TOKENS, max_size=12), max_size=4), st.integers(1, 8),
       st.lists(_VOCAB_TOKENS, max_size=12))
def test_vocabulary_matches_reference(corpora, cap, tokens):
    def outcome(build):
        try:
            return build(iter(corpora), cap)  # the corpora are read once
        except ValueError as exc:
            return str(exc)

    want = outcome(reference.build_vocabulary)
    got = outcome(lambda c, k: Vocabulary.build((iter(s) for s in c), k).index_to_token)
    assert got == want
    if isinstance(want, list):
        v = Vocabulary(want)
        assert v.indices(tokens) == reference.vocabulary_indices(v, tokens)


def test_normalize_token_alignment():
    assert normalize_token("@BLENDOS") == USER
    assert normalize_token("Weight") == "weight"
    assert normalize_token("😀") == UNK


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(max_size=8),
    st.text(string.ascii_letters + string.digits, max_size=8),
    st.lists(st.sampled_from([*SENTINELS, "@", "#", "_", "A", "z", "0", "é", "ß", "²", "İ",
                              "http://", "www.", " ", "!"]), max_size=4).map("".join),
))
def test_normalize_token_is_the_first_token_of_normalize(token):
    assert normalize_token(token) == (tokenize(normalize(token)) or [UNK])[0]


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
        assert np.array_equal(table.vectors[v.index(PAD)], [0.0, 0.0])

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

    @pytest.mark.parametrize("header", ["0 -3", "1 0", "-1 2"])
    def test_header_sizes_out_of_range(self, tmp_path, header):
        v = Vocabulary.build([["alpha"]], cap=5)
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\nalpha\n")
        with pytest.raises(DataError, match=rf"emb\.txt: header 'V D' needs V >= 0 and D >= 1"):
            load_embeddings(path, v)

    def test_overstated_width_names_line_before_allocating(self, tmp_path):
        v = Vocabulary.build([["alpha"]], cap=5)
        path = tmp_path / "emb.txt"
        path.write_text(f"1 {10**12}\nalpha 1.0 2.0\n")
        with pytest.raises(DataError, match=rf"emb\.txt: line 2: expected {10**12} values, got 2"):
            load_embeddings(path, v)

    # Spellings of a value on the last line, in the second block of two lines:
    # what it parses to, or the error that names it.
    @pytest.mark.parametrize("value, expected", [
        ("1_000", 1000.0),  # accepted by Python's float, not by numpy's loadtxt
        ("\u0661", 1.0),  # ARABIC-INDIC DIGIT ONE, likewise
        ("+1.5", 1.5),
        ("-0", -0.0),
        ("1e-320", 1e-320),
        ("1e309", "line 5: non-finite value (nan or inf)"),
        ("nan", "line 5: non-finite value (nan or inf)"),
        ("1\x1c", "line 5: bad float"),  # loadtxt strips \x1c as whitespace
        ("0x10", "line 5: bad float"),
        ("7.0 8.0", "line 5: expected 2 values, got 3"),
    ])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_value_in_second_block_matches_reference(self, tmp_path, monkeypatch, value,
                                                      expected, newline):
        monkeypatch.setattr(text_module, "_BLOCK_LINES", 2)
        v = Vocabulary.build([["alpha", "beta", "gamma", "delta"]], cap=10)
        path = tmp_path / "emb.txt"
        rows = ["4 2", "alpha 1.0 2.0", "beta 3.0 4.0", "gamma 5.0 6.0", f"delta 7.0 {value}"]
        path.write_text(newline.join(rows) + newline, newline="")
        if isinstance(expected, str):
            with pytest.raises(DataError) as exc:
                load_embeddings(path, v)
            assert str(exc.value) == f"{path}: {expected}"
            with pytest.raises(DataError) as ref_exc:
                reference.load_embeddings(path, v)
            assert str(ref_exc.value) == str(exc.value)
        else:
            table = load_embeddings(path, v)
            row = table.vectors[v.index("delta")]
            assert row.tobytes() == np.array([7.0, expected]).tobytes()
            assert table.vectors.tobytes() == reference.load_embeddings(path, v).vectors.tobytes()

    def test_duplicate_across_blocks_names_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(text_module, "_BLOCK_LINES", 2)
        v = Vocabulary.build([["alpha", "beta"]], cap=5)
        path = tmp_path / "emb.txt"
        path.write_text("4 1\nalpha 1\nbeta 2\ngamma 3\nalpha 4\n")
        with pytest.raises(DataError, match=r"emb\.txt: line 5: duplicate token 'alpha'"):
            load_embeddings(path, v)

    @pytest.mark.parametrize("first_row", [0, 1, 17, 30, 37])
    def test_duplicate_many_blocks_later_names_line(self, tmp_path, monkeypatch, first_row):
        """The hashes read so far are kept in merged runs; a repeat of a token
        from any earlier run is still found, and named by its line."""
        monkeypatch.setattr(text_module, "_BLOCK_LINES", 2)
        v = Vocabulary.build([["w0", "w1"]], cap=5)
        path = tmp_path / "emb.txt"
        rows = [f"w{i} {i}" for i in range(39)] + [f"w{first_row} 99"]
        path.write_text(f"{len(rows)} 1\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=rf"emb\.txt: line 41: duplicate token 'w{first_row}'$"):
            load_embeddings(path, v)

    @pytest.mark.parametrize("last", ["delta 4", "beta 4"])
    def test_hash_collisions_are_confirmed_against_the_file(self, tmp_path, monkeypatch, last):
        """Every token hashes alike, so each block is re-read line by line and
        each token checked against the file: only a real repeat is an error."""
        monkeypatch.setattr(text_module, "_BLOCK_LINES", 2)
        monkeypatch.setattr(text_module, "hash", lambda token: 7, raising=False)
        v = Vocabulary.build([["alpha", "beta", "delta"]], cap=5)
        path = tmp_path / "emb.txt"
        path.write_text(f"4 1\nalpha 1\nbeta 2\ngamma 3\n{last}\n")
        if last == "beta 4":
            with pytest.raises(DataError, match=r"emb\.txt: line 5: duplicate token 'beta'"):
                load_embeddings(path, v)
        else:
            table = load_embeddings(path, v)
            assert table.vectors.tobytes() == reference.load_embeddings(path, v).vectors.tobytes()

    def test_memory_bounded_by_table_and_one_block(self, tmp_path, monkeypatch):
        """A file with 20 times more rows than the vocabulary has words. The
        loader's peak stays within the table, 16 bytes a row for the token
        hashes (8, and 8 more while a block's are inserted) and a few times
        one block's text (its lines, their join, loadtxt's 4-byte characters
        and the parsed floats); the reference, which holds every row, does not."""
        monkeypatch.setattr(text_module, "_BLOCK_LINES", 100)
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(2000)]
        v = Vocabulary([*SENTINELS, *words[::20]])
        path = tmp_path / "emb.txt"
        lines = [w + " " + " ".join(f"{x:.6f}" for x in rng.uniform(-1, 1, 64)) + "\n"
                 for w in words]
        path.write_text(f"{len(words)} 64\n" + "".join(lines))
        block = sum(sys.getsizeof(line) for line in lines[:100])
        bound = len(v) * 64 * 8 + 16 * len(words) + 8 * block

        def peak(load):
            tracemalloc.start()
            try:
                table = load(path, v)
                return table, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        table, new_peak = peak(load_embeddings)
        ref_table, ref_peak = peak(reference.load_embeddings)
        assert table.vectors.tobytes() == ref_table.vectors.tobytes()
        assert new_peak < bound < ref_peak


_SPELLINGS = ["1_000", "\u0661", "+1.5", "-0", "1e-320", "1e309", "nan", "-inf", "1\x1c",
              "\u00a01", "1.", ".5", "", "0x10", "1,5"]


@st.composite
def embedding_files(draw):
    """An embeddings file, mostly well formed, with spellings that Python's
    float and numpy's loadtxt treat differently, repeated tokens, a wrong
    width or row count, CRLF endings and arbitrary text."""
    dim = draw(st.integers(1, 3))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(-1, 1).map(lambda x: f"{x:.5f}"),
        st.sampled_from(_SPELLINGS),
    )
    token = st.one_of(st.sampled_from(["alpha", "beta", "gamma", "delta", "<UNK>", "<PAD>", ""]),
                      st.text(max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        width = draw(st.sampled_from([dim] * 8 + [dim - 1, dim + 1]))
        rows.append(" ".join([draw(token)] + [draw(value) for _ in range(width)]))
    count = max(0, len(rows) + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([newline, ""]))
    return newline.join([f"{count} {dim}", *rows]) + end


@settings(max_examples=400, deadline=None)
@given(embedding_files(), st.integers(1, 4))
def test_load_embeddings_matches_reference(content, block_lines):
    v = Vocabulary([*SENTINELS, "alpha", "beta", "gamma", "delta"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.txt"
        path.write_text(content, encoding="utf-8", newline="")

        def outcome(load):
            try:
                table = load(path, v, seed=3)
            except DataError as exc:
                return str(exc)
            return table.vectors.shape, table.vectors.tobytes(), table.coverage

        ref = outcome(reference.load_embeddings)
        with mock.patch.object(text_module, "_BLOCK_LINES", block_lines):
            assert outcome(load_embeddings) == ref
