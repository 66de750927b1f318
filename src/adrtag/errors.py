"""The errors that decide how the ``adr`` command ends.

Exit codes: 0 success; 1 a usage error (click's errors and any other
``ValueError``) or running out of memory; 2 a :class:`DataError` or an
``OSError``, naming the file; 3 a :class:`NumericalError`.
"""


class DataError(ValueError):
    """A data file or record is malformed."""


class CheckpointError(DataError):
    """A checkpoint file is unreadable or incompatible."""


class NumericalError(RuntimeError):
    """A non-finite value appeared where finite math was required."""
