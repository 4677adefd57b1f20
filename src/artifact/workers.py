"""One pool of worker threads for the numpy work that runs without the GIL.

The stacked SVD of `counting.steady_states` and the distance blocks of
`knn._neighbors` spend their time in numpy routines that release the
interpreter lock, so threads run them side by side: one worker per CPU
this process may run on (`os.sched_getaffinity`), the calling thread
and `count() - 1` pool threads. The calling thread takes jobs too
because glibc keeps the memory a thread frees in that thread's own
arena: every extra thread adds its largest job's arrays to the peak
resident size. The pool is started on first use, never at import: a
tracer that hooks new threads through `threading.settrace` then sees
the workers too.

`run` is the one way in. Its jobs must write disjoint outputs, so the
order they run in cannot change a result. They must not rely on
`np.errstate` or warning filters, which a worker thread does not inherit
from the caller. A job may call `run` itself: the nested call runs its
jobs in order on the job's own thread (`nested()`), since every other
worker may be busy with a job that waits on the pool too.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_lock = threading.Lock()
_pool = None  # the executor, once a call has needed it
_local = threading.local()  # .busy: this thread is running a job of `run`


def count() -> int:
    """Workers, the calling thread among them: the CPUs this process may
    run on."""
    return len(os.sched_getaffinity(0))


def nested() -> bool:
    """Whether this thread is running a job of `run`, so that a `run`
    called here runs its jobs inline."""
    return getattr(_local, "busy", False)


def spans(n: int, parts: int) -> list:
    """`parts` contiguous slices covering range(n) in order, their sizes
    differing by at most one."""
    edges = [n * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def run(jobs) -> None:
    """Call every job of `jobs`, callables that take no argument.

    With one worker, or one job, or inside a job (`nested()`), they run
    here in order. Otherwise this thread and count() - 1 pool threads
    take the jobs in order, each the next one left as it finishes its
    last, and once every job has ended the exception of the earliest job
    that raised is raised, as the serial loop would.
    """
    jobs = list(jobs)
    if len(jobs) < 2 or count() < 2 or nested():
        for job in jobs:
            job()
        return
    left, lock, errors = iter(enumerate(jobs)), threading.Lock(), {}

    def drain():
        while True:
            with lock:
                i, job = next(left, (None, None))
            if job is None:
                return
            _local.busy = True
            try:
                job()
            except BaseException as exc:  # kept for the caller, raised below
                errors[i] = exc
            finally:
                _local.busy = False

    futures = [_executor().submit(drain) for _ in range(min(count(), len(jobs)) - 1)]
    drain()
    wait(futures)
    if errors:
        raise errors[min(errors)]


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(count() - 1, thread_name_prefix="artifact-worker")
        return _pool
