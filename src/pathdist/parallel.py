"""Deterministic chunked execution over a process pool.

Work items are split into fixed chunks, each chunk is processed
independently against shared immutable inputs, and results are merged in
chunk order.  Because every per-item value is computed the same way
regardless of chunk boundaries, outputs are identical for any worker count.
A serial eager run (:func:`run_chunked` with one worker) is one chunk.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["split_chunks", "iter_chunked", "run_chunked"]


def split_chunks(items: Sequence[T], chunk_size: int) -> list[list[T]]:
    return [list(items[i : i + chunk_size]) for i in range(0, len(items), chunk_size)]


def iter_chunked(
    fn: Callable[[list[T]], R],
    items: Sequence[T],
    workers: int = 1,
):
    """Apply ``fn`` to chunks of ``items``, yielding results in chunk order.

    Each worker gets about four chunks.  Results stream as chunks complete
    (in order), so callers can persist partial progress while later chunks
    are still being computed.
    """
    if not items:
        return
    n_chunks = max(workers, 1) * 4
    chunks = split_chunks(items, (len(items) + n_chunks - 1) // n_chunks)
    if workers <= 1 or len(chunks) == 1:
        for chunk in chunks:
            yield fn(chunk)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, chunks)


def run_chunked(
    fn: Callable[[list[T]], R],
    items: Sequence[T],
    workers: int = 1,
) -> list[R]:
    """Eager variant of :func:`iter_chunked`.

    Nothing streams from it, so with ``workers <= 1`` all ``items`` form
    one chunk: ``fn`` is called once, and state it carries from item to
    item (such as a running maximum) is never restarted.
    """
    if workers <= 1:
        return [fn(list(items))] if items else []
    return list(iter_chunked(fn, items, workers))
