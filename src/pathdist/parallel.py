"""Deterministic chunked execution over a process pool.

Work items are split into fixed chunks, each chunk is processed
independently against shared immutable inputs, and results are merged in
chunk order.  Because every per-item value is computed the same way
regardless of chunk boundaries, outputs are identical for any worker count.
A serial eager run (:func:`run_chunked` with one worker) is one chunk.

An entry point wraps a whole run in :func:`run_pool`, so that every chunked
call inside it shares one process pool.  The chunk function is pickled once
per call and each worker keeps the last one it unpickled, so a worker
unpickles the target graph, and builds the caches it keeps, once for all
the passes that send it the same function.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import InputError

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["split_chunks", "iter_chunked", "run_chunked", "run_pool"]


# The open run pool and the process that opened it.
_run: tuple[int, ProcessPoolExecutor] | None = None
# Worker side: the pickled chunk function last received and its unpickled value.
_last_fn: tuple[bytes, Callable] | None = None


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")


def _open_pool() -> ProcessPoolExecutor | None:
    # A forked worker inherits its parent's pool object but must never use it.
    return _run[1] if _run is not None and _run[0] == os.getpid() else None


@contextlib.contextmanager
def run_pool(workers: int):
    """Serve every chunked call inside the block from one pool of ``workers`` processes.

    The workers start when a call first submits a chunk.  However the block
    exits, pending chunks are cancelled and the workers are shut down and
    joined before it returns.  Inside an open run pool, or with one worker,
    the block opens nothing.  Calls inside the block use the pool whatever
    worker count they pass; their chunk boundaries still follow that count.
    """
    global _run
    _check_workers(workers)
    if workers == 1 or _open_pool() is not None:
        yield
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    _run = (os.getpid(), pool)
    try:
        yield
    finally:
        _run = None
        pool.shutdown(wait=True, cancel_futures=True)


@contextlib.contextmanager
def _executor(workers: int):
    """The open run pool, or a pool of ``workers`` processes for this call alone.

    A pool opened here is never shared: another stream open at the same
    time must not lose its pool when this one ends.
    """
    pool = _open_pool()
    if pool is not None:
        yield pool
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def _call_chunk(fn_bytes: bytes, chunk: list):
    """Worker side of :func:`iter_chunked`: unpickle ``fn`` only when it changed."""
    global _last_fn
    if _last_fn is None or _last_fn[0] != fn_bytes:
        _last_fn = (fn_bytes, pickle.loads(fn_bytes))
    return _last_fn[1](chunk)


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
    are still being computed.  Chunks run in the open :func:`run_pool`, or
    else in a pool opened for this call.  ``workers`` below 1 raises
    :class:`InputError`.
    """
    _check_workers(workers)
    if not items:
        return
    n_chunks = workers * 4
    chunks = split_chunks(items, (len(items) + n_chunks - 1) // n_chunks)
    if workers == 1 or len(chunks) == 1:
        for chunk in chunks:
            yield fn(chunk)
        return
    fn_bytes = pickle.dumps(fn)
    with _executor(workers) as pool:
        yield from pool.map(_call_chunk, itertools.repeat(fn_bytes), chunks)


def run_chunked(
    fn: Callable[[list[T]], R],
    items: Sequence[T],
    workers: int = 1,
) -> list[R]:
    """Eager variant of :func:`iter_chunked`.

    Nothing streams from it, so with one worker all ``items`` form one
    chunk: ``fn`` is called once, and state it carries from item to item
    (such as a running maximum) is never restarted.
    """
    _check_workers(workers)
    if workers == 1:
        return [fn(list(items))] if items else []
    return list(iter_chunked(fn, items, workers))
