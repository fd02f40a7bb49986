"""Two threads draining one list of independent items: the calling thread
and one worker, shared by the process and started on first use.  numpy
releases the GIL inside its array routines, so items that are numpy
calls run on separate cores.
"""
from __future__ import annotations

import threading

import numpy as np

# Threads draining a list: the calling thread and _THREADS - 1 workers.  A
# constant, not os.cpu_count(), so the work does not depend on where it runs.
_THREADS = 2

_pool = None
_pool_lock = threading.Lock()


def _workers():
    """The process's shared workers, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_THREADS - 1, thread_name_prefix="mppn-worker")
            _pool.submit(int).result()  # start a worker thread now, not in a drain
        return _pool


def drain(items: list, fn, per_thread=((),) * _THREADS) -> None:
    """Call ``fn(item, *args)`` for every item (none of them None); args
    is the ``per_thread`` entry of the thread that took the item, the
    caller's first.

    Each thread takes the next item from one lock-guarded iterator.  With
    fewer than two items no worker task starts.  Out of items, the caller
    cancels a worker task that has not started, so an unscheduled thread
    holds up at most the one item it took.  A failed item empties the
    iterator, and its error is raised (the worker's if both failed).
    numpy keeps its error state per thread, so every item runs under the
    caller's (``np.geterr()``).
    """
    pending = iter(items)
    lock = threading.Lock()
    errors = np.geterr()

    def take(*args):
        nonlocal pending
        with np.errstate(**errors):
            while True:
                with lock:
                    item = next(pending, None)
                if item is None:
                    return
                try:
                    fn(item, *args)
                except BaseException:
                    with lock:
                        pending = iter(())
                    raise

    rest = per_thread[1:] if len(items) > 1 else ()
    futures = [_workers().submit(take, *args) for args in rest]
    try:
        take(*per_thread[0])
    finally:
        for error in [f.exception() for f in futures if not f.cancel()]:
            if error is not None:
                raise error
