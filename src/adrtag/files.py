"""Output files that are never left half-written."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file opened with ``mode`` beside ``path`` (UTF-8 in text mode)
    and rename it over ``path`` once the block completes. If the block fails,
    ``path`` keeps its previous content, or stays absent, and the temporary
    file is removed."""
    path = os.fspath(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # never hide the error that got here
            os.remove(tmp)
        if isinstance(exc, OSError):  # name the output, not its temporary file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
