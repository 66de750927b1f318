"""Every text input is read through ``files.lines``: line endings, bytes that
are not UTF-8 far into a file, and no reader that opens a file itself."""

import ast
from pathlib import Path

import pytest

from adrtag import cli, encoding, text
from adrtag.errors import DataError
from adrtag.files import lines

PACKAGE = Path(cli.__file__).parent

# reader name -> (the reader, an LF input it reads)
READERS = {
    "raw-corpus": (lambda p: list(cli._read_unlabeled(p)),
                   "t1\tugh effexor today\n\nt2\tfeel  weird\n"),
    "processed-corpus": (lambda p: list(cli._read_processed(p)),
                         "t1\teffexor\tugh <DRUG> dizzy\n\nt2\tcymbalta\t<DRUG> hurts\n"),
    "conll": (encoding.read_conll, "ugh\tO\ndizzy\tI-ADR\n\nhead\tO\nhurts\tI-ADR\n"),
    "stopwords": (text.load_stopwords, "The\n\nand\n"),
    "lexicon": (lambda p: text.DrugLexicon.load(p).names, "Effexor\n\nco-codamol\n"),
    "vocabulary": (lambda p: text.Vocabulary.load(p).index_to_token,
                   "".join(f"{t}\n" for t in text.SENTINELS) + "\nugh\ndizzy\n"),
}


def test_lines_numbers_each_line_without_its_newline(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"a b\r\n\nc\rd")
    assert list(lines(path)) == [(1, "a b"), (2, ""), (3, "c"), (4, "d")]


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_reads_crlf_as_lf(tmp_path, reader):
    read, content = READERS[reader]
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(content.encode("utf-8"))
    crlf.write_bytes(content.replace("\n", "\r\n").encode("utf-8"))
    want = read(lf)
    assert want and read(crlf) == want


def test_bad_byte_deep_in_a_corpus_names_its_line(tmp_path):
    """A bad byte past the first decode chunk is still named by its line."""
    path = tmp_path / "corpus.tsv"
    rows = [f"t{i}\teffexor\tugh <DRUG> dizzy\n".encode() for i in range(600)]
    rows[499] = b"t499\teffexor\tugh \xff dizzy\n"
    path.write_bytes(b"".join(rows))
    assert len(b"".join(rows[:499])) > 8192
    with pytest.raises(DataError) as exc:
        list(cli._read_processed(path))
    assert str(exc.value) == f"{path}: line 500: not UTF-8 text (invalid start byte)"


def test_bad_byte_in_the_third_block_of_embeddings_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(text, "_BLOCK_LINES", 100)
    path = tmp_path / "emb.txt"
    rows = [f"w{i:03d} {' '.join(['0.5'] * 8)}\n".encode() for i in range(300)]
    rows[287] = b"w\xff" + rows[287][4:]  # line 289, in the third block: lines 202-301
    data = b"300 8\n" + b"".join(rows)
    path.write_bytes(data)
    assert data.index(b"\xff") > 8192
    vocab = text.Vocabulary([*text.SENTINELS, "w000"])
    with pytest.raises(DataError) as exc:
        text.load_embeddings(path, vocab)
    assert str(exc.value) == f"{path}: line 289: not UTF-8 text (invalid start byte)"


def _open_calls(tree):
    """(enclosing function, call) for each call of ``open`` or ``*.open``."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = (f"{scope}.{child.name}".lstrip(".")
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope)
            if isinstance(child, ast.Call) and (
                    getattr(child.func, "id", None) == "open"
                    or getattr(child.func, "attr", None) == "open"):
                yield inner, child
            yield from visit(child, inner)
    return visit(tree, "")


def test_only_files_and_the_checkpoint_reader_open_files():
    """Every text input goes through files.lines. Outside files.py, the one
    file adrtag opens itself is a checkpoint, read as bytes."""
    found = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "files.py":
            continue
        for scope, call in _open_calls(ast.parse(module.read_text(), module.name)):
            found.append((module.name, scope, ast.unparse(call)))
    assert found == [("training.py", "load_checkpoint", "open(path, 'rb')")]
