"""Input files and standard input read as UTF-8 text, and output files that
are never left half-written."""

from __future__ import annotations

import contextlib
import errno
import io
import os
import sys

from .errors import DataError


def _not_utf8(name, lines, exc: UnicodeDecodeError) -> DataError:
    """The error for input ``name``, naming the first of its byte ``lines``
    that is not UTF-8."""
    # A line is UTF-8 exactly when decoding it replaces nothing.
    lineno = next((n for n, line in enumerate(lines, start=1)
                   if line.decode("utf-8", "replace").encode("utf-8") != line), None)
    return DataError(f"{name}: line {lineno}: not UTF-8 text ({exc.reason})")


@contextlib.contextmanager
def reading(path):
    """Yield ``path`` opened as UTF-8 text. Bytes that are not UTF-8 end the
    block with a :class:`DataError` naming the file and the first such line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:  # read again, only to name the line
            raise _not_utf8(path, fh, exc) from None


def read_stdin() -> str:
    """All of standard input as UTF-8 text, whatever the locale. Bytes that
    are not UTF-8 raise a :class:`DataError` naming ``<stdin>`` and the first
    such line."""
    data = sys.stdin.buffer.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8("<stdin>", io.BytesIO(data), exc) from None


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file opened with ``mode`` beside ``path`` (UTF-8 in text mode)
    and rename it over ``path`` once the block completes. If the block fails,
    ``path`` keeps its previous content, or stays absent, and the temporary
    file is removed. An OSError from the output itself names ``path``."""
    path = os.fspath(path)
    if os.path.isdir(path):  # else only the rename, after the block's work, refuses it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # never hide the error that got here
            os.remove(tmp)
        # A failed write names no file; an error naming another file is not the output's.
        if isinstance(exc, OSError) and exc.filename in (None, tmp):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
