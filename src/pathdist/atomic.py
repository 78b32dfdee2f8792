"""Artifacts that are replaced whole or not at all, and the one JSON layout they share."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_write", "write_json"]


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


def write_json(path, doc) -> None:
    """Write ``doc`` atomically as JSON with one-space indents, sorted keys and a final newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
