"""Priority job queue for asynchronous ``/simulate`` submissions.

Synchronous ``POST /simulate`` holds the connection open for the whole
ensemble; the job queue decouples submission from execution so a
client can enqueue expensive what-ifs and poll:

* ``POST /jobs`` parks a simulate request and answers **202** with a
  job id immediately.
* Jobs carry an integer **priority** (higher runs first; FIFO within
  a priority level) and drain through the same micro-batcher → warm
  :mod:`repro.parallel` pool path the synchronous endpoint uses, so a
  burst of queued jobs still costs one pool dispatch per batch.
* ``DELETE /jobs/{id}`` cancels a *queued* job; a *running* job is
  past the point of no return (it is executing inside pool workers)
  and the delete is refused with 409.  Every cancellation records who
  asked (``cancel_reason``) — client cancellations and server drains
  are distinguishable in the job's terminal state.
* Results land in the shared result cache under the same key the
  synchronous endpoint would use, so a later ``POST /simulate`` with
  identical parameters is a byte-identical cache hit.

Terminal states are exactly one of ``done`` / ``failed`` /
``cancelled``; a job is never lost (executor crashes surface as
``failed`` with the exception attributed) and never duplicated (the
queue pops each entry once) — the chaos suite drives pool-worker
crashes through this contract.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

from repro.errors import ServeError

__all__ = ["JOB_STATES", "Job", "JobConflict", "JobQueue"]

#: Every state a job can report; the last three are terminal.
JOB_STATES = (
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
)


class JobConflict(ServeError):
    """The requested transition is not legal for the job's state."""


@dataclass
class Job:
    """One asynchronous simulate submission."""

    id: str
    params: dict[str, Any]
    priority: int
    seq: int
    submitted_at: float
    status: str = "queued"
    started_at: float | None = None
    finished_at: float | None = None
    cancel_reason: str | None = None
    error: dict[str, str] | None = None
    result: bytes | None = field(default=None, repr=False)
    cached: bool = False

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    def describe(self) -> dict[str, Any]:
        """JSON-friendly job record (without the result payload)."""
        payload: dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "priority": self.priority,
            "params": self.params,
        }
        if self.started_at is not None:
            payload["queued_seconds"] = (
                self.started_at - self.submitted_at
            )
        if self.finished_at is not None and self.started_at is not None:
            payload["run_seconds"] = (
                self.finished_at - self.started_at
            )
        if self.cancel_reason is not None:
            payload["cancel_reason"] = self.cancel_reason
        if self.error is not None:
            payload["error"] = self.error
        if self.status == "done":
            payload["cached"] = self.cached
        return payload


class JobQueue:
    """Priority queue + runner tasks over an async executor.

    Args:
        execute: Async callable turning one job's params into result
            bytes; receives ``(params, job)`` and may set
            ``job.cached``.  Exceptions mark the job ``failed``.
        concurrency: Runner tasks draining the queue.  More than one
            lets concurrent jobs micro-batch into a single warm-pool
            dispatch; exactly one gives strict priority order.
        retention: Terminal jobs kept for polling; the oldest-finished
            are forgotten beyond this.
        clock: Injectable monotonic clock.
    """

    def __init__(
        self,
        execute: Callable[[dict[str, Any], "Job"], Awaitable[bytes]],
        *,
        concurrency: int = 2,
        retention: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if concurrency < 1:
            raise ServeError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        if retention < 1:
            raise ServeError(f"retention must be >= 1, got {retention}")
        self._execute = execute
        self.concurrency = concurrency
        self.retention = retention
        self._clock = clock
        self._jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._finished_order: list[str] = []
        self._seq = itertools.count()
        self._wakeup: asyncio.Event | None = None
        self._runners: list[asyncio.Task] = []
        self._running: set[str] = set()
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.peak_queued = 0

    # -- submission and lookup ---------------------------------------------

    def submit(self, params: dict[str, Any], priority: int = 0) -> Job:
        """Enqueue one job; returns it in ``queued`` state.

        Raises:
            ServeError: Once the queue is draining/closed.
        """
        if self._closed:
            raise ServeError("job queue is closed (server draining)")
        seq = next(self._seq)
        job = Job(
            id=f"{seq:06d}-{os.urandom(4).hex()}",
            params=dict(params),
            priority=priority,
            seq=seq,
            submitted_at=self._clock(),
        )
        self._jobs[job.id] = job
        # heapq is a min-heap: negate priority so higher runs first,
        # seq breaks ties FIFO.
        heapq.heappush(self._heap, (-priority, seq, job.id))
        self.submitted += 1
        self.peak_queued = max(self.peak_queued, self.queued)
        self._ensure_runners()
        if self._wakeup is not None:
            self._wakeup.set()
        return job

    def get(self, job_id: str) -> Job:
        """Look a job up.

        Raises:
            ServeError: For an unknown (or forgotten) job id.
        """
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServeError(f"unknown job {job_id!r}") from None

    def list(
        self, status: str | None = None, limit: int = 100
    ) -> list[Job]:
        """Most-recently-submitted jobs, optionally filtered."""
        jobs = sorted(
            self._jobs.values(), key=lambda job: -job.seq
        )
        if status is not None:
            jobs = [job for job in jobs if job.status == status]
        return jobs[:limit]

    @property
    def queued(self) -> int:
        return sum(
            1 for job in self._jobs.values() if job.status == "queued"
        )

    @property
    def running(self) -> int:
        return len(self._running)

    # -- cancellation -------------------------------------------------------

    def cancel(self, job_id: str, reason: str = "client request") -> Job:
        """Cancel a queued job, attributing the cancellation.

        Raises:
            ServeError: Unknown job id.
            JobConflict: The job is running (execution is already
                inside pool workers) or already terminal.
        """
        job = self.get(job_id)
        if job.status == "running":
            raise JobConflict(
                f"job {job_id!r} is running and cannot be cancelled"
            )
        if job.terminal:
            raise JobConflict(
                f"job {job_id!r} already {job.status}"
            )
        self._finish(job, "cancelled", cancel_reason=reason)
        return job

    def drain(self, reason: str = "server drain") -> int:
        """Refuse new submissions and cancel everything still queued.

        Running jobs are left to finish (:meth:`close` awaits them).
        Returns the number of jobs cancelled.
        """
        self._closed = True
        drained = 0
        for job in list(self._jobs.values()):
            if job.status == "queued":
                self._finish(job, "cancelled", cancel_reason=reason)
                drained += 1
        if self._wakeup is not None:
            self._wakeup.set()
        return drained

    async def close(self, timeout: float = 30.0) -> None:
        """Drain queued jobs, await running ones, stop the runners."""
        self.drain()
        deadline = self._clock() + timeout
        while self._running and self._clock() < deadline:
            await asyncio.sleep(0.01)
        for task in self._runners:
            task.cancel()
        for task in self._runners:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._runners.clear()

    # -- execution ----------------------------------------------------------

    def _ensure_runners(self) -> None:
        loop = asyncio.get_running_loop()
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        self._runners = [
            task for task in self._runners if not task.done()
        ]
        while len(self._runners) < self.concurrency:
            self._runners.append(loop.create_task(self._run()))

    def _pop_next(self) -> Job | None:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            # Cancelled (or forgotten) entries stay in the heap until
            # popped; skip them here.
            if job is not None and job.status == "queued":
                return job
        return None

    async def _run(self) -> None:
        assert self._wakeup is not None
        while True:
            job = self._pop_next()
            if job is None:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            job.status = "running"
            job.started_at = self._clock()
            self._running.add(job.id)
            try:
                job.result = await self._execute(job.params, job)
            except asyncio.CancelledError:
                # Runner torn down mid-flight (loop shutdown): the
                # job did not finish — record that, don't lose it.
                self._finish(
                    job, "failed",
                    error={
                        "type": "CancelledError",
                        "message": "server shut down mid-execution",
                    },
                )
                raise
            except Exception as error:
                self._finish(
                    job, "failed",
                    error={
                        "type": type(error).__name__,
                        "message": str(error)[:300],
                    },
                )
            else:
                self._finish(job, "done")
            finally:
                self._running.discard(job.id)

    def _finish(
        self,
        job: Job,
        status: str,
        *,
        error: dict[str, str] | None = None,
        cancel_reason: str | None = None,
    ) -> None:
        job.status = status
        job.finished_at = self._clock()
        job.error = error
        job.cancel_reason = cancel_reason
        if status == "done":
            self.completed += 1
        elif status == "failed":
            self.failed += 1
        elif status == "cancelled":
            self.cancelled += 1
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.retention:
            forgotten = self._finished_order.pop(0)
            stale = self._jobs.get(forgotten)
            if stale is not None and stale.terminal:
                del self._jobs[forgotten]

    def stats(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "queued": self.queued,
            "running": self.running,
            "peak_queued": self.peak_queued,
            "retention": self.retention,
            "concurrency": self.concurrency,
        }
