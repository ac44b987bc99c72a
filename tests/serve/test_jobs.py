"""Job-queue semantics: priority, cancellation, drain, retention.

The contract the chaos suite leans on: every submitted job ends in
exactly one terminal state (``done``/``failed``/``cancelled``), is
never lost, never runs twice, and cancellations carry attribution
(client request vs server drain).
"""

from __future__ import annotations

import asyncio
import re

import pytest

from repro.errors import ServeError
from repro.serve.jobs import JOB_STATES, JobConflict, JobQueue


def run(coro):
    return asyncio.run(coro)


async def wait_terminal(queue, job, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not job.terminal:
        assert asyncio.get_running_loop().time() < deadline, job
        await asyncio.sleep(0.005)
    return job


def test_states_vocabulary():
    assert JOB_STATES == (
        "queued", "running", "done", "failed", "cancelled"
    )


def test_constructor_validation():
    async def execute(params, job):
        return b""

    with pytest.raises(ServeError):
        JobQueue(execute, concurrency=0)
    with pytest.raises(ServeError):
        JobQueue(execute, retention=0)


def test_priority_order_with_single_runner():
    """Higher priority first; FIFO within a level."""

    async def scenario():
        order: list[str] = []
        gate = asyncio.Event()

        async def execute(params, job):
            if params["tag"] == "gate":
                await gate.wait()
            order.append(params["tag"])
            return b"ok"

        queue = JobQueue(execute, concurrency=1)
        # First job occupies the single runner so the rest queue up
        # and are popped strictly by (priority desc, seq asc).
        blocker = queue.submit({"tag": "gate"}, priority=0)
        await asyncio.sleep(0.01)
        queue.submit({"tag": "low"}, priority=-1)
        queue.submit({"tag": "high-1"}, priority=5)
        queue.submit({"tag": "mid"}, priority=1)
        last = queue.submit({"tag": "high-2"}, priority=5)
        gate.set()
        await wait_terminal(queue, last)
        await wait_terminal(queue, blocker)
        for job in queue.list():
            await wait_terminal(queue, job)
        await queue.close()
        return order

    order = run(scenario())
    assert order == ["gate", "high-1", "high-2", "mid", "low"]


def test_cancel_queued_vs_running_vs_terminal():
    async def scenario():
        started = asyncio.Event()
        release = asyncio.Event()

        async def execute(params, job):
            started.set()
            await release.wait()
            return b"done"

        queue = JobQueue(execute, concurrency=1)
        running = queue.submit({"tag": "running"})
        await started.wait()
        queued = queue.submit({"tag": "queued"})

        cancelled = queue.cancel(queued.id, reason="operator abort")
        assert cancelled.status == "cancelled"
        assert cancelled.cancel_reason == "operator abort"

        with pytest.raises(JobConflict):
            queue.cancel(running.id)  # past the point of no return
        with pytest.raises(JobConflict):
            queue.cancel(queued.id)  # already terminal
        with pytest.raises(ServeError):
            queue.cancel("999999-deadbeef")  # unknown

        release.set()
        await wait_terminal(queue, running)
        assert running.status == "done"
        assert running.result == b"done"
        await queue.close()
        return queue

    queue = run(scenario())
    assert queue.cancelled == 1
    assert queue.completed == 1


def test_failures_are_attributed_not_lost():
    async def scenario():
        async def execute(params, job):
            raise ValueError("x" * 400)

        queue = JobQueue(execute, concurrency=2)
        job = queue.submit({})
        await wait_terminal(queue, job)
        await queue.close()
        return job

    job = run(scenario())
    assert job.status == "failed"
    assert job.error["type"] == "ValueError"
    assert len(job.error["message"]) <= 300  # truncated, no dump


def test_drain_cancels_queued_with_attribution():
    async def scenario():
        started = asyncio.Event()
        release = asyncio.Event()

        async def execute(params, job):
            started.set()
            await release.wait()
            return b"finished"

        queue = JobQueue(execute, concurrency=1)
        running = queue.submit({"tag": "running"})
        await started.wait()
        queued = [queue.submit({"i": i}) for i in range(3)]

        drained = queue.drain(reason="server drain")
        assert drained == 3
        for job in queued:
            assert job.status == "cancelled"
            assert job.cancel_reason == "server drain"
        # Draining refuses new submissions…
        with pytest.raises(ServeError):
            queue.submit({})
        # …but the running job still completes.
        release.set()
        await wait_terminal(queue, running)
        assert running.status == "done"
        await queue.close()

    run(scenario())


def test_job_ids_are_sequence_then_nonce():
    async def scenario():
        async def execute(params, job):
            return b""

        queue = JobQueue(execute)
        jobs = [queue.submit({}) for _ in range(2)]
        for job in jobs:
            await wait_terminal(queue, job)
        await queue.close()
        return jobs

    ids = [job.id for job in run(scenario())]
    assert [job_id.split("-")[0] for job_id in ids] == ["000000", "000001"]
    assert all(re.fullmatch(r"\d{6}-[0-9a-f]{8}", job_id) for job_id in ids)


def test_retention_forgets_oldest_finished_only():
    async def scenario():
        async def execute(params, job):
            return b""

        queue = JobQueue(execute, concurrency=1, retention=3)
        jobs = [queue.submit({"i": i}) for i in range(6)]
        for job in jobs:
            await wait_terminal(queue, job)
        await queue.close()
        return queue, jobs

    queue, jobs = run(scenario())
    remembered = {job.id for job in queue.list(limit=100)}
    assert len(remembered) == 3
    # The most recently finished survive.
    assert jobs[-1].id in remembered
    with pytest.raises(ServeError):
        queue.get(jobs[0].id)


def test_describe_reports_timing_and_cache_attribution():
    async def scenario():
        async def execute(params, job):
            job.cached = True
            return b"{}"

        queue = JobQueue(execute)
        job = queue.submit({"a": 1}, priority=2)
        await wait_terminal(queue, job)
        await queue.close()
        return job

    job = run(scenario())
    record = job.describe()
    assert record["status"] == "done"
    assert record["priority"] == 2
    assert record["cached"] is True
    assert record["queued_seconds"] >= 0.0
    assert record["run_seconds"] >= 0.0
