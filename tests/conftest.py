import errno

import pytest

from adrtag import files


class _FillingFile:
    """A file that runs out of space after ``room`` characters (or bytes)."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.fixture
def disk_fills_up(monkeypatch):
    """``disk_fills_up(n)``: from then on, every file ``atomic_write`` opens
    fails with ENOSPC once ``n`` characters have been written to it. Files
    that ``files.lines`` opens for reading are left alone."""
    def arm(room):
        def filling_open(path, mode="r", **kw):
            fh = open(path, mode, **kw)
            return fh if "r" in mode else _FillingFile(fh, room)
        monkeypatch.setattr(files, "open", filling_open, raising=False)
    return arm
