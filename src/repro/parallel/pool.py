"""Persistent warm worker pool shared by every sweep in the process.

Interpreter start + module imports cost hundreds of milliseconds per
worker, so this module keeps **one**
:class:`~concurrent.futures.ProcessPoolExecutor` alive for the process
lifetime instead of one per sweep:

* :func:`get_pool` returns the module singleton, creating it on first
  use and *growing* it (never shrinking) when a caller asks for more
  workers than it currently has.  Amortised over a session — a sweep
  of sweeps, a long-lived ``repro.serve`` process — the fork/spawn
  cost is paid once.
* **Fork safety**: the singleton records its creating PID.  A process
  that ``fork()``\\ s inherits the parent's executor state (queues,
  management thread) in an unusable form; the first ``get_pool`` in
  the child detects the PID change and builds a fresh pool instead of
  touching the inherited wreck.
* **Crash respawn**: when a sweep observes
  :class:`~concurrent.futures.process.BrokenProcessPool` it calls
  :meth:`WorkerPool.notify_broken` with the generation it was using.
  The first notifier swaps in a fresh executor (generation + 1);
  concurrent sweeps that saw the same break become no-ops.  The
  notifying sweep re-runs its unfinished chunks in the parent; the
  respawn restores warm parallelism for the *next* call.
* **Thread safety**: ``repro.serve`` drains micro-batches from
  executor threads, so several sweeps may share the pool
  concurrently.  ``ProcessPoolExecutor.submit`` is thread-safe; the
  singleton and generation bookkeeping here are guarded by locks.

:func:`shutdown_pool` tears the singleton down explicitly (tests, CLI
``KeyboardInterrupt`` handling — the workers must not outlive an
interrupted parent, and exit code 130 must not be delayed by a pool
join).  It is also registered ``atexit`` so normal interpreter exit
reaps the workers.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any

__all__ = [
    "WorkerPool",
    "get_pool",
    "shutdown_pool",
    "pool_stats",
]


class WorkerPool:
    """One process-lifetime executor with growth and crash respawn.

    Not constructed directly in normal use — :func:`get_pool` owns the
    singleton.  Direct construction is for tests that need an isolated
    pool.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.created_pid = os.getpid()
        self._lock = threading.Lock()
        self._max_workers = max_workers
        self._executor: ProcessPoolExecutor | None = (
            ProcessPoolExecutor(max_workers=max_workers)
        )
        self._spawns = 1  # executor cold starts paid so far
        self._generation = 1

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def generation(self) -> int:
        """Increments every respawn/regrow; snapshot it with
        :meth:`executor` and hand it back to :meth:`notify_broken`."""
        return self._generation

    @property
    def closed(self) -> bool:
        return self._executor is None

    def executor(self) -> tuple[ProcessPoolExecutor, int]:
        """Current executor plus its generation tag.

        Raises:
            RuntimeError: If the pool was shut down.
        """
        with self._lock:
            if self._executor is None:
                raise RuntimeError("worker pool is shut down")
            return self._executor, self._generation

    def grow(self, max_workers: int) -> None:
        """Replace the executor with a larger one; no-op if already
        at least ``max_workers`` wide.

        The old executor is shut down without cancelling: futures
        other threads already hold keep running to completion on the
        old workers while new submissions land on the wide pool.
        """
        with self._lock:
            if self._executor is None:
                raise RuntimeError("worker pool is shut down")
            if max_workers <= self._max_workers:
                return
            old = self._executor
            self._executor = ProcessPoolExecutor(max_workers=max_workers)
            self._max_workers = max_workers
            self._spawns += 1
            self._generation += 1
        old.shutdown(wait=False)

    def notify_broken(self, generation: int) -> None:
        """Respawn after a sweep saw ``BrokenProcessPool`` on
        ``generation``.

        Only the first notifier for a generation respawns; later ones
        (other threads sharing the same broken executor) find the
        generation already advanced and return.  A stale notification
        after an explicit shutdown does nothing.
        """
        with self._lock:
            if self._executor is None or generation != self._generation:
                return
            old = self._executor
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers
            )
            self._spawns += 1
            self._generation += 1
        old.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Reap the workers; idempotent.

        Does not wait for in-flight tasks (callers abandoning a pool
        mid-sweep — SIGINT — must not block on stragglers) but does
        cancel everything still queued.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def stats(self) -> dict[str, Any]:
        """Counters for benchmarks and tests."""
        with self._lock:
            return {
                "max_workers": self._max_workers,
                "spawns": self._spawns,
                "generation": self._generation,
                "created_pid": self.created_pid,
                "alive": self._executor is not None,
            }


_singleton: WorkerPool | None = None
_singleton_lock = threading.Lock()


def get_pool(processes: int) -> WorkerPool:
    """The process-wide warm pool, at least ``processes`` wide.

    First call pays the spawn; later calls reuse (growing if asked
    for more workers than the pool has).  After a ``fork()`` the
    child gets its own fresh pool — the parent's executor does not
    survive forking.
    """
    global _singleton
    with _singleton_lock:
        pool = _singleton
        if pool is not None and (
            pool.closed or pool.created_pid != os.getpid()
        ):
            # Closed explicitly, or inherited across fork().  An
            # inherited executor's management thread and pipes do not
            # exist in this process; abandon the handle untouched.
            pool = None
        if pool is None:
            pool = WorkerPool(processes)
            _singleton = pool
        elif processes > pool.max_workers:
            pool.grow(processes)
        return pool


def shutdown_pool() -> None:
    """Shut down the singleton (if any); idempotent.

    Used by the CLI's ``KeyboardInterrupt`` path (workers must die
    with the interrupted parent, preserving exit code 130), by tests
    that need a cold pool, and ``atexit``.
    """
    global _singleton
    with _singleton_lock:
        pool, _singleton = _singleton, None
    if pool is not None and pool.created_pid == os.getpid():
        pool.shutdown()


def pool_stats() -> dict[str, Any] | None:
    """Stats of the live singleton, or None when no pool exists."""
    with _singleton_lock:
        pool = _singleton
    if pool is None or pool.created_pid != os.getpid():
        return None
    return pool.stats()


atexit.register(shutdown_pool)
