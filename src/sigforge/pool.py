"""Worker pools: the one way to fork one, the pool write_shards and
validate keep between calls, and ordered, the one way a range's tasks run.

A pool is a concurrent.futures.ProcessPoolExecutor of forked workers,
made by fork_pool, or None for one worker, whose work then runs inline.
ordered(pool, fn, tasks) submits every task at once and gives the
results in task order; when its block ends, early or not, it cancels the
tasks no worker has taken and waits on the rest, so no task outlives the
block. A worker that dies, killed by the out-of-memory killer say,
breaks its pool: every task still pending on it fails, and ordered
raises WorkerLostError, an OSError, rather than waiting for results that
will never come.

write_shards and validate take their pool from kept_pool, which keeps it
for the next call of the process: forking a pool and tearing it down
cost a 424-example clean job a fifth of its time. A call takes the kept
pool if it has the workers asked for, else shuts it down and forks one;
a call that raises, WorkerLostError and KeyboardInterrupt included,
shuts its pool down, so the next call forks a fresh one. A forked child
does not inherit the kept pool. The batch server forks its own pool,
which lives as long as the server, and replaces it when a worker is lost.

concurrent.futures joins its workers at interpreter exit. A worker also
exits when the process that forked it dies, SIGKILLed say: it watches a
pidfd of that process (so Linux only).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import multiprocessing
import os
import select
import signal
import threading
from concurrent.futures import Executor
from typing import Callable, Iterable, Iterator


class WorkerLostError(OSError):
    """A pool worker died before its tasks ended, so their range fails."""


def _exit_with(pidfd: int) -> None:
    """Exit this process once the process of pidfd has exited."""
    select.select([pidfd], [], [])
    os._exit(1)


def _init_worker(parent: int) -> None:
    """Pool workers leave Ctrl-C to their parent, die on the SIGTERM with
    which a broken pool ends the workers it has left, and exit when
    parent, the process that forked them, dies: a worker holds the write
    end of its own task queue, so it would otherwise wait on that queue
    for ever. A worker starts with SIGINT and SIGTERM blocked, as
    fork_pool left them, and keeps SIGINT blocked; it unblocks SIGTERM
    only once its handler is the default, so a SIGTERM held back
    meanwhile kills it rather than running the handler it inherited."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(target=_exit_with, args=(os.pidfd_open(parent),), daemon=True).start()
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def fork_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor | None:
    """A pool of `workers` forked processes, or None for one worker. Fork
    by name, not the platform's default (forkserver from Python 3.14):
    forked workers start with this process's imports, and a forkserver
    pool doubled the time of a cold 53-example generate.

    The executor forks all its workers on its first submission, so
    fork_pool submits a no-op while SIGINT and SIGTERM are blocked: neither
    a Ctrl-C nor a SIGTERM that a caller maps to KeyboardInterrupt (as
    `sigforge serve` does) can stop the executor between forking a worker
    and registering it, which would leave that worker running. One that
    arrives meanwhile is raised when the mask is restored, and the pool's
    workers are terminated and the pool shut down first. So are the
    workers already forked when a later fork fails: the executor, its
    thread not yet started, would leave them waiting for ever, and the
    interpreter would wait on them at exit. The executor's thread keeps
    the blocked mask, so signals reach the main thread; each worker
    unblocks SIGTERM in _init_worker.

    The pool lives until its caller shuts it down: the batch server's for
    as long as the server, the one write_shards and validate keep until a
    call needs another size or raises (see kept_pool). Its workers hold
    what this process had open when they forked."""
    if workers < 2:
        return None
    pool = concurrent.futures.ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _init_worker, (os.getpid(),))
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    try:
        pool.submit(int)  # forks every worker
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # runs a held-back signal
    except BaseException:
        for worker in pool._processes.values():  # as no thread stops them if a fork failed
            worker.terminate()
        pool.shutdown()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        raise
    return pool


@contextlib.contextmanager
def ordered(pool: Executor | None, fn: Callable, tasks: Iterable) -> Iterator[Iterator]:
    """An iterator of fn(task) for each of tasks, in task order: run in
    this process as each is taken if pool is None, else all submitted to
    the pool when the first is taken, and each result taken in task order,
    so results do not depend on scheduling, and none is held past its
    yield. Raises what a task raises, or WorkerLostError if a worker of the
    pool died.

    On a pool, the exit cancels the tasks no worker has taken and returns
    once the others have ended, so no task outlives the block, however it
    ends: a task raised, a worker died or the caller stopped early. The
    block runs its own clean-up first, as iter_range closes the file its
    tasks write."""
    if pool is None:
        yield map(fn, tasks)
        return
    pending = []

    def results() -> Iterator:
        # what extend has taken is waited on below, even if a later submission fails
        pending.extend(pool.submit(fn, task) for task in tasks)
        while pending:
            yield pending[0].result()
            del pending[:1]  # held no longer than its yield
    try:
        yield results()
    except concurrent.futures.BrokenExecutor as exc:
        raise WorkerLostError("a pool worker died before its tasks ended") from exc
    finally:  # cancel what no worker has taken, and wait on the rest
        concurrent.futures.wait([future for future in pending if not future.cancel()])


# The pool write_shards and validate keep between calls, as (workers, pool),
# and the lock a call holds while it takes the pool out of the slot or puts
# it back
_kept_pool: tuple[int, Executor] | None = None
_kept_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: no process its parent started is its child, and
    a thread of the parent may have held the lock as it forked. Forgetting
    the processes keeps multiprocessing's exit handler from joining the
    kept pool's workers when a child of os.fork exits, which fails."""
    global _kept_pool, _kept_pool_lock
    multiprocessing.process._children.clear()
    _kept_pool, _kept_pool_lock = None, threading.Lock()


def _drop_pool(kept: tuple[int, Executor] | None = None, workers: int = 0) -> Executor | None:
    """Put kept (None to empty it) in the slot, and shut down the pool the
    slot held and join its workers, unless it has `workers` workers: that
    pool is returned instead."""
    global _kept_pool
    with _kept_pool_lock:
        held, _kept_pool = _kept_pool, kept
    if held is not None and held[0] != workers:
        held[1].shutdown()
        held = None
    return held and held[1]


os.register_at_fork(after_in_child=_forget_pool)


@contextlib.contextmanager
def kept_pool(workers: int) -> Iterator[Executor | None]:
    """The pool of `workers` processes (None for one worker) that
    write_shards and validate run on: the kept pool if it has that many
    workers, else a fresh fork_pool, the kept one shut down. A body that
    returns puts its pool back in the slot, where ordered has left it
    idle, and shuts down any pool a concurrent call put there meanwhile;
    one that raises, KeyboardInterrupt included, shuts its pool down."""
    if workers < 2:
        yield None
        return
    pool = _drop_pool(None, workers) or fork_pool(workers)
    try:
        yield pool
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise
    _drop_pool((workers, pool))
