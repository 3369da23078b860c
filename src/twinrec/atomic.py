"""Atomic file output: a reader finds the old file or the whole new one."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


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
