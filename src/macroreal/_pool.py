"""An ordered map over forked worker processes, where forking is safe.

:func:`map` is the one place that starts worker processes: counting a
dataset's histograms and writing its archives both go through it, under the
same rules.  ``taskset`` limits the workers; nothing else does.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterator, Optional, Sequence

# Keys per pool task: at most _POOL_CHUNK, and few enough that every worker
# takes at least _TASKS_PER_WORKER tasks.  Workers take tasks as they free
# up, so they finish within one task of each other: with 36 keys on two
# workers, chunks of 2 split 9 + 9 tasks, where chunks of 4 would split 5 + 4.
_POOL_CHUNK = 4
_TASKS_PER_WORKER = 8

# The (fn, job) a pool worker calls, set once per worker.
_worker_call: Optional[tuple] = None


def _start_worker(fn: Callable, job: tuple) -> None:
    global _worker_call
    _worker_call = (fn, job)


def _call_in_worker(key):
    fn, job = _worker_call
    return fn(*job, key)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map(fn: Callable, job: tuple, keys: Sequence) -> Iterator:
    """Yield ``fn(*job, key)`` for every key, in up to one forked worker per usable CPU.

    Forked workers inherit ``fn`` and ``job``; only keys and results cross
    between processes.  Results come in key order, so an error is the one
    of the first failing key, and the keys not yet started are cancelled; a
    worker that dies raises ``BrokenProcessPool`` rather than hanging.
    Every worker has exited once the iterator is exhausted or has raised,
    so run it to the end.  Runs here, serially, with one usable CPU or key,
    no ``fork`` start method, in a daemonic process (which may not have
    children) or while other threads run (one may hold a lock the forked
    child would inherit).
    """
    # Imported here: ``import macroreal.cli`` stays free of multiprocessing.
    import multiprocessing

    workers = min(_usable_cpus(), len(keys))
    if (
        workers < 2
        or multiprocessing.current_process().daemon
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        for key in keys:
            yield fn(*job, key)
        return
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    chunk = max(1, min(_POOL_CHUNK, len(keys) // (_TASKS_PER_WORKER * workers)))
    with ProcessPoolExecutor(workers, context, _start_worker, (fn, job)) as pool:
        yield from pool.map(_call_in_worker, keys, chunksize=chunk)
