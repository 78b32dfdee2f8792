"""Deterministic chunked execution over a process pool.

Work items are split into fixed chunks, each chunk is processed
independently against shared immutable inputs, and results are merged in
chunk order.  Because every per-item value is computed the same way
regardless of chunk boundaries, outputs are identical for any worker count.
A serial eager run (:func:`run_chunked` outside a run pool) is one chunk.

An entry point wraps a whole run in :func:`run_pool`, which holds the
worker count: every chunked call inside it shares one process pool and
splits its items by that count, and outside one every call runs serially.
The chunk function is pickled once per call and each worker keeps the last
one it unpickled, so a worker unpickles the target graph, and builds the
caches it keeps, once for all the passes that send it the same function.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import InputError, is_integer

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["check_workers", "split_chunks", "iter_chunked", "run_chunked", "run_pool"]


# The open run pool: the process that opened it, the pool and its worker count.
_run: tuple[int, ProcessPoolExecutor, int] | None = None
# Worker side: the pickled chunk function last received and its unpickled value.
_last_fn: tuple[bytes, Callable] | None = None


def _open_run() -> tuple[ProcessPoolExecutor, int] | None:
    """The open run pool and its worker count, or ``None`` outside one."""
    # A forked worker inherits its parent's pool object but must never use it.
    return _run[1:] if _run is not None and _run[0] == os.getpid() else None


def check_workers(workers) -> None:
    """Raise :class:`InputError` unless ``workers`` is an integer >= 1; a bool is not one."""
    if not is_integer(workers, 1):
        raise InputError(f"workers must be >= 1 and an integer, got {workers!r}")


@contextlib.contextmanager
def run_pool(workers: int):
    """Serve every chunked call inside the block from one pool of ``workers`` processes.

    The workers start when a call first submits a chunk.  However the block
    exits, pending chunks are cancelled and the workers are shut down and
    joined before it returns.  With one worker the block opens nothing, so
    chunked calls inside it run serially.  Inside an open run pool the block
    opens nothing either: calls inside it use the outer pool and its count.
    ``workers`` that :func:`check_workers` refuses raise :class:`InputError`.
    """
    global _run
    check_workers(workers)
    if workers == 1 or _open_run() is not None:
        yield
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    _run = (os.getpid(), pool, workers)
    try:
        yield
    finally:
        _run = None
        pool.shutdown(wait=True, cancel_futures=True)


def _call_chunk(fn_bytes: bytes, chunk: list):
    """Worker side of :func:`iter_chunked`: unpickle ``fn`` only when it changed."""
    global _last_fn
    if _last_fn is None or _last_fn[0] != fn_bytes:
        _last_fn = (fn_bytes, pickle.loads(fn_bytes))
    return _last_fn[1](chunk)


def split_chunks(items: Sequence[T], chunk_size: int) -> list[list[T]]:
    return [list(items[i : i + chunk_size]) for i in range(0, len(items), chunk_size)]


def iter_chunked(fn: Callable[[list[T]], R], items: Sequence[T]):
    """Apply ``fn`` to chunks of ``items``, yielding results in chunk order.

    Inside an open :func:`run_pool` each of its workers gets about four
    chunks, which run on the pool.  Results stream as chunks complete (in
    order), so callers can persist partial progress while later chunks are
    still being computed.  Outside a run pool, and inside a pool worker, the
    four chunks run one after another in this process.
    """
    if not items:
        return
    run = _open_run()
    n_chunks = 4 * (run[1] if run is not None else 1)
    chunks = split_chunks(items, (len(items) + n_chunks - 1) // n_chunks)
    if run is None or len(chunks) == 1:
        for chunk in chunks:
            yield fn(chunk)
        return
    fn_bytes = pickle.dumps(fn)
    yield from run[0].map(_call_chunk, itertools.repeat(fn_bytes), chunks)


def run_chunked(fn: Callable[[list[T]], R], items: Sequence[T]) -> list[R]:
    """Eager variant of :func:`iter_chunked`.

    Nothing streams from it, so where no run pool serves it all ``items``
    form one chunk: ``fn`` is called once, and state it carries from item
    to item (such as a running maximum) is never restarted.
    """
    if _open_run() is None:
        return [fn(list(items))] if items else []
    return list(iter_chunked(fn, items))
