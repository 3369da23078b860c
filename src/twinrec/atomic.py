"""Workspace I/O: atomic file output, and the one checked reader of the workspace's archives.

Every workspace file that ``prepare-data`` writes (the sequences and both
vocabularies) is an uncompressed ``.npz`` archive of 1-D columns, written
with ``atomic_write`` and read back with ``read_columns``.
"""

from __future__ import annotations

import os
import zipfile
from contextlib import contextmanager, suppress

import numpy as np


@contextmanager
def atomic_write(path, binary=False):
    """Open ``<path>.tmp`` for writing and move it over ``path`` once the block ends.

    The caller streams into the temp file, so nothing is built in memory
    first. If the block raises, the temp file is removed and ``path`` is
    left as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_columns(path, what, dtypes, check):
    """The columns of the archive at ``path``, in the order ``dtypes`` names them.

    ``dtypes`` maps each column's name to ``str`` for a string column or to
    ``np.int64``. The archive is read with ``allow_pickle=False``. A file
    that is not an archive, an archive of other columns, a column that is
    not 1-D of its dtype, and columns for which ``check(*columns)`` is false,
    all fail with one ``ValueError``: ``<path>: not <what>; run prepare-data
    again``.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            columns = {name: archive[name] for name in archive.files}
    except (AttributeError, TypeError, ValueError, EOFError, zipfile.BadZipFile):
        columns = {}
    if columns.keys() == dtypes.keys() and all(
            c.ndim == 1 and (c.dtype.kind == "U" if dtypes[n] is str else c.dtype == dtypes[n])
            for n, c in columns.items()):
        columns = [columns[name] for name in dtypes]
        if check(*columns):
            return columns
    raise ValueError(f"{path}: not {what}; run prepare-data again")
