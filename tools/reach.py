"""Report the lines of ``src/adrtag`` that no test in the given files runs.

The CLI tests drive ``adr`` in-process, so a line they never run serves no
command, unless it is a library guard listed in ``ALLOWED`` with its reason.
An allow-list entry names a statement by its first line. The tests run
under ``sys.settrace`` with Hypothesis derandomized, so a run is
repeatable, and write nothing into the checkout.

Prints each unreached line as ``file:line: source`` (an allowed one followed
by ``# allowed: <reason>``), then a summary. Exits 1 if an unreached line is
not allowed, if an allow-list entry matches no unreached line, or if a test
fails.

Usage, from anywhere in a checkout:

    python tools/reach.py [TEST_FILE ...]     # default: tests/test_cli.py
"""

import argparse
import ast
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adrtag"

# (file, enclosing function or "<module>", the stripped first line of the
# statement) -> why no file or flag given to `adr` can run it.
ALLOWED = {
    ("cli.py", "<module>", "main()"):
        "runs only as `python -m adrtag.cli`; the tests call main() directly",
    ("evaluation.py", "aggregate_trials", 'raise ValueError("no trials to aggregate")'):
        "evaluate's --checkpoint is required, so there is at least one trial",
    ("model.py", "AdrModel.encode_batch", 'raise ValueError("valid lengths must be in [1, T]")'):
        "every caller pads with pad_batch, whose lengths lie in [1, T]",
    ("model.py", "AdrModel._backward_head",
     'raise RuntimeError("backward requires the unspent cache from the loss of the same head")'):
        "_train runs each cache's backward once, right after the loss of the same head",
    ("model.py", "AdrModel.tag_loss",
     'raise ValueError(f"tags {tags.shape} must align with tokens {np.shape(indices)}")'):
        "train_supervised pads tags and tokens of equal lengths alike",
    ("model.py", "AdrModel.tag_loss",
     'raise ValueError("a tag at a real position must be I-ADR, I-IND or O (0, 1 or 2)")'):
        "read_conll refuses the <PAD> tag, so every tag train reads is I-ADR, I-IND or O",
    ("numerics.py", "Gradients.step", 'raise ValueError(f"a second gradient for {p.name}")'):
        "a backward pass hands each parameter's gradient over once",
    ("numerics.py", "finite_difference_gradient", "raise NumericalError("):
        "gradient_check's losses stay finite: a perturbed encoder that overflows "
        "raises in encode_batch, and one perturbed head weight cannot overflow a logit",
    ("text.py", "Vocabulary.build", 'raise ValueError("vocabulary cap must be >= 1")'):
        "build-vocab's --cap is an IntRange(min=1)",
    ("training.py", "pad_batch", 'raise ValueError("cannot pad an empty example")'):
        "the readers refuse a record without tokens, and preprocess drops a tweet with none",
    ("training.py", "pretrain", 'raise ValueError("pretraining corpus is empty")'):
        "_read_processed refuses a corpus without records",
    ("training.py", "train_supervised", 'raise ValueError("labeled training set is empty")'):
        "_read_sentences refuses a CoNLL file without sentences",
    ("training.py", "train_supervised",
     'raise ValueError(f"token/tag misalignment in record {sid!r}")'):
        "_encode_labeled maps each token of a sentence to one id",
    ("training.py", "load_checkpoint",
     'raise CheckpointError(f"{path}: truncated while reading {name}")'):
        "the file's size was checked against the header on the same open file, "
        "so only a file cut while it is read gets here",
}


def _code_lines(code) -> set:
    """The line numbers the interpreter can report running in ``code`` and
    the code objects nested in it."""
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(n for _, _, n in c.co_lines() if n)
        stack.extend(k for k in c.co_consts if isinstance(k, type(code)))
    return lines


def _owners(tree: ast.Module) -> tuple:
    """Two maps from line number: to the qualified name of the innermost def
    or class holding the line, and to the first line of the innermost
    statement holding it."""
    names, starts = {}, {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            lines = range(getattr(child, "lineno", 0), getattr(child, "end_lineno", -1) + 1)
            if isinstance(child, ast.stmt):  # visited after its parent, so innermost wins
                starts.update(dict.fromkeys(lines, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.update(dict.fromkeys(lines, prefix + child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names, starts


def _run_traced(test_files) -> tuple:
    """Run pytest on ``test_files`` in this process, tracing ``PACKAGE``.
    Returns pytest's exit code and the (real path, line) pairs that ran."""
    import pytest
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir

    prefix = str(PACKAGE) + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.dont_write_bytecode = True  # no __pycache__ in the checkout
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        set_hypothesis_home_dir(os.path.join(tmp, "hypothesis"))
        settings.register_profile("reach", database=None, derandomize=True)
        settings.load_profile("reach")
        sys.settrace(tracer)
        try:
            # No plugin that writes into the working directory: the cache, and
            # pytest-benchmark's storage where it is installed. Hypothesis was
            # imported above, too early for pytest to rewrite its asserts.
            code = pytest.main([*map(str, test_files), "-q", "-p", "no:cacheprovider",
                                "-p", "no:benchmark",
                                "-W", "ignore::pytest.PytestAssertRewriteWarning",
                                f"--basetemp={os.path.join(tmp, 'pytest')}",
                                f"--rootdir={ROOT}"])
        finally:
            sys.settrace(None)
    return int(code), {(os.path.realpath(f), n) for f, n in hits}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tests", nargs="*", type=Path, default=[ROOT / "tests" / "test_cli.py"])
    args = ap.parse_args(argv)
    test_code, hits = _run_traced([p.resolve() for p in args.tests])

    total = unreached = 0
    missing, matched = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        owners, starts = _owners(ast.parse(source))
        real = os.path.realpath(path)
        lines = _code_lines(compile(source, str(path), "exec"))
        total += len(lines)
        for n in sorted(lines):
            if (real, n) in hits:
                continue
            unreached += 1
            key = (path.name, owners.get(n, "<module>"), text[starts.get(n, n) - 1].strip())
            where = f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}"
            if key in ALLOWED:
                matched.add(key)
                print(f"{where}  # allowed: {ALLOWED[key]}")
            else:
                missing.append(key)
                print(where)
    stale = [key for key in ALLOWED if key not in matched]
    for key in stale:
        print(f"allow-list entry matches no unreached line: {key}")
    print(f"reach: {unreached} of {total} executable lines in src/adrtag unreached; "
          f"{len(missing)} not allowed, {len(stale)} stale allow-list entries")
    if test_code != 0:
        print(f"reach: pytest exited {test_code}")
    return 1 if missing or stale or test_code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
