"""Crash-safe file output shared by every writer of an artifact."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb", **open_kwargs):
    """Open `<path>.tmp` for writing; when the block ends cleanly, fsync it
    and rename it over path.

    A crash or an exception mid-write therefore leaves the previous file
    at path whole, and any exception removes the temporary file. A failed
    rename raises an OSError whose filename2 is path.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
