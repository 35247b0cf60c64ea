"""The package's workers: one process per usable core, for a simulation's
iterations, a predict call's method families and an ensemble's blocks.

Work is split into numbered tasks (a simulation's iterations, the method
families of ``methods.compute_intervals``, an ensemble's blocks), each
drawing only from its own substreams, so the result never depends on the
number of workers.

``run_in_order`` splits its tasks into contiguous ranges, one per worker.
The caller runs the first and largest range itself and a forked child
process runs each other range on one thread, so short numpy calls that
hold the interpreter lock still run side by side.  The children pickle
their results and warnings back through pipes, and the caller merges
every result in task order.  It forks only on Linux (other platforms'
system libraries are not fork-safe), only where ``os.fork`` exists and
only while no other thread is alive (one could hold a lock that the
child would inherit locked); otherwise, or with one worker, the same
loop runs in order on the caller.  While a process works a range of
tasks, a nested call (an ensemble's blocks inside a simulation's
iteration, say) runs its tasks inline, so no more than ``_WORKERS``
workers ever run.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import warnings

__all__ = ["run_in_order"]

# Workers, the caller included: one per usable core.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:
    _WORKERS = os.cpu_count() or 1

# Set while the caller, and each child it forks, works a range of tasks.
_on_pool = threading.local()


def run_in_order(task, n_tasks: int, merge) -> None:
    """Call merge(task(j)) for every j < n_tasks in order of j, the tasks on up to _WORKERS processes.

    The caller works the first and largest range, and forks the children
    only once task 0 has been merged, so a call whose first task or merge
    raises forks nothing.  task(j) must return a picklable value.  A child
    runs its range until a task raises, then sends each task's result, or
    the exception, with the warnings the task issued.  The caller
    re-issues those warnings and merges, or re-raises, in task order, so
    merge and the warning filters see what the serial loop gives them,
    and the first exception in task order (a task's or merge's own)
    propagates.  A child that dies before sending raises RuntimeError
    naming its exit status.  Every child has been reaped when this
    returns or raises: once the caller's range or a merge raises, the
    children still running are killed.
    """
    workers = min(_WORKERS, n_tasks)
    if workers <= 1 or not _may_fork():
        for j in range(n_tasks):
            merge(task(j))
        return
    size, extra = divmod(n_tasks, workers)
    bounds = [j * size + min(j, extra) for j in range(workers + 1)]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), until reaped
    # Set before the forks, so every process, each child included, works its
    # range on one thread, its nested run_in_order calls inline.
    _on_pool.busy = True
    try:
        # Task 0 runs before any fork, so a call that fails at once forks nothing.
        merge(task(0))
        # Text still buffered would otherwise be written once more by any child that flushes.
        sys.stdout.flush()
        sys.stderr.flush()
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _work_range(task, range(start, stop), write_end)
            os.close(write_end)
            children.append((pid, read_end))
        for j in range(1, bounds[1]):
            merge(task(j))
        while children:
            pid, read_end = children[0]
            data = b"".join(iter(lambda: os.read(read_end, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            del children[0]
            os.close(read_end)
            code = os.waitstatus_to_exitcode(status)
            if code or not data:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise RuntimeError(f"worker process {pid} {how} before sending its results")
            for value, raised, caught in pickle.loads(data):
                for args in caught:
                    _reissue(*args)
                if raised:
                    raise value
                merge(value)
    finally:
        _on_pool.busy = False
        if children:
            import signal  # only here, so importing the package stays as cheap as it was

            for pid, read_end in children:
                os.kill(pid, signal.SIGKILL)
                os.close(read_end)
                os.waitpid(pid, 0)


def _may_fork() -> bool:
    """Whether run_in_order may fork: see the module docstring."""
    return (
        sys.platform == "linux"
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and not getattr(_on_pool, "busy", False)
    )


def _work_range(task, tasks: range, write_end: int) -> None:
    """In a forked child: run tasks in order, pickle their records to write_end, and exit.

    A record is (result, False, warnings), or (exception, True, warnings)
    for the task that raised, after which the child stops; the exception
    carries the child's traceback as a note.  It never returns: it ends
    with os._exit, so none of the caller's clean-up runs twice, and with
    status 1 if it could not send its records.
    """
    status = 1
    try:
        import traceback  # in the child only, so importing the package stays as cheap as it was

        records = []
        with warnings.catch_warnings(record=True) as caught:
            # Every warning is sent; the caller's filters decide what shows.
            warnings.simplefilter("always")
            for j in tasks:
                seen = len(caught)
                try:
                    value, raised = task(j), False
                except Exception as exc:
                    if hasattr(exc, "add_note"):  # Python 3.11 and later
                        where = f"in worker process {os.getpid()}:\n"
                        exc.add_note(where + "".join(traceback.format_exception(exc)))
                    value, raised = exc, True
                issued = [(w.message, w.category, w.filename, w.lineno) for w in caught[seen:]]
                records.append((value, raised, issued))
                if raised:
                    break
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(records, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    except BaseException:  # not re-raised: the child must not unwind into the caller's frames
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def _reissue(message, category, filename: str, lineno: int) -> None:
    """Issue a child's warning here as warnings.warn would have issued it, module registry included."""
    module = next(
        (m for m in list(sys.modules.values()) if getattr(m, "__file__", None) == filename), None
    )
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
    else:
        registry = vars(module).setdefault("__warningregistry__", {})
        warnings.warn_explicit(message, category, filename, lineno, module.__name__, registry)
