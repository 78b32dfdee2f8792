"""Artifacts that are replaced whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path, newline: str | None = None):
    """Open ``path`` for writing text so that it is only ever replaced as a whole.

    The text goes to a temporary file in the same directory, which
    :func:`os.replace` moves over ``path`` when the block ends.  If the
    block raises, the temporary file is removed and ``path`` keeps what it
    held before, so no reader sees a half-written artifact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
