"""One ordered map over independent jobs, on a fork pool of the usable cores.

`ordered_map(fn, jobs)` gives fn(job) for every job, in job order, whatever
order the workers finish in, so a caller's outputs do not depend on the
number of workers. It forks min(usable cores, jobs) workers; with one
usable core, inside one of its own workers, or when the caller allows one
worker, it runs the jobs in this process instead, so a worker never forks.
`fn` and the jobs reach the workers through the fork, never pickled; only
each job's index goes to a worker and only its result comes back. Each
worker runs OpenBLAS on one thread, and no worker outlives the `with` block.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

# set in each worker by _start_worker, so that a nested map runs in-process
_IN_WORKER = False
_worker_fn = None
_worker_jobs: list = []


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_call(verb: str, *args) -> list[int]:
    """Calls `openblas_<verb>` in each OpenBLAS mapped into this process.

    Returns one result per library that exports the function, under the plain
    name or the `scipy_openblas_` and `64_` names of NumPy's wheels. Finds
    none where the process has no `/proc/self/maps` or uses another BLAS.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in Path(f[5].strip()).name}
    results = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)  # already loaded, so this only returns its handle
        for name in (f"{prefix}_{verb}{suffix}" for prefix in ("openblas", "scipy_openblas")
                     for suffix in ("", "64_")):
            if hasattr(lib, name):
                results.append(getattr(lib, name)(*args))
                break
    return results


def _one_blas_thread() -> None:
    """The workers fill the cores, so each runs BLAS on one thread.

    OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads, so a forked worker
    would otherwise keep the parent's thread count, and compete with itself.
    """
    _openblas_call("set_num_threads", 1)


def _start_worker(fn, jobs: list) -> None:
    """Pool initializer. Under fork its arguments are inherited, not pickled."""
    global _IN_WORKER, _worker_fn, _worker_jobs
    _IN_WORKER, _worker_fn, _worker_jobs = True, fn, jobs
    _one_blas_thread()


def _run_job(i: int):
    return _worker_fn(_worker_jobs[i])


@contextlib.contextmanager
def ordered_map(fn, jobs, lost=None, max_workers=None):
    """A `with` block over an iterator of fn(job) for each job, in job order.

    At most `max_workers` workers start, when it is given; 1 runs the jobs
    in this process. An exception that fn raises in a worker is raised here,
    when its result is reached. A job lost with a dead worker yields
    lost(job, error) when `lost` is given, and raises the `BrokenProcessPool`
    error otherwise.
    Leaving the block cancels the jobs not yet started and joins the running
    ones. Workers are forked, so the caller should hold no other threads;
    results must pickle.
    """
    jobs = list(jobs)
    workers = 1 if _IN_WORKER else min(usable_cores(), len(jobs), max_workers or len(jobs))
    if workers <= 1:
        yield map(fn, jobs)
        return

    # imported here, so that a command that maps nothing starts without them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def results(futures):
        for job, future in zip(jobs, futures):
            try:
                yield future.result()
            except BrokenProcessPool as e:
                if lost is None:
                    raise
                yield lost(job, e)

    # Always fork, by name: spawn and forkserver start helper processes
    # (the resource tracker, the fork server) that outlive the pool. On the
    # fork context the executor forks every worker before it starts its own
    # thread, so a worker copies no thread of the pool.
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(fn, jobs),
    )
    try:
        yield results([pool.submit(_run_job, i) for i in range(len(jobs))])
    finally:
        # cancel the queued jobs and join the running ones, whatever happened
        pool.shutdown(wait=True, cancel_futures=True)
