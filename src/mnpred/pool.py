"""The package's one worker pool: plain threads, one per usable core.

Work is split into numbered tasks (a simulation's iterations, an
ensemble's blocks), each drawing only from its own substream and writing
only its own slot, so the result never depends on the number of threads.
A call made from inside a task runs its tasks inline on that thread, so
nested work (the ensemble blocks of a simulation iteration) never starts
more than ``_WORKERS`` threads in all.
"""

from __future__ import annotations

import os
import threading

__all__ = ["run_each"]

# Threads that work tasks, the calling thread included: one per usable core.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:
    _WORKERS = os.cpu_count() or 1

# Set on a thread while it works tasks of a call that runs on several threads.
_on_pool = threading.local()


def run_each(task, n_tasks: int) -> None:
    """Call task(j) for every j < n_tasks on up to _WORKERS threads, the caller's included.

    The threads pull task indices from one shared counter and are joined
    before return; the first exception any task raised is re-raised
    here, and the other threads stop after their current task.  With
    one task, one worker, or a caller that is itself working tasks on
    the pool, no thread starts and the tasks run in order on the caller.
    """
    workers = min(_WORKERS, n_tasks)
    if workers <= 1 or getattr(_on_pool, "busy", False):
        for j in range(n_tasks):
            task(j)
        return
    tasks = iter(range(n_tasks))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work() -> None:
        _on_pool.busy = True
        try:
            while not errors:
                with lock:
                    j = next(tasks, None)
                if j is None:
                    return
                try:
                    task(j)
                except BaseException as exc:
                    errors.append(exc)
        finally:
            _on_pool.busy = False

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
