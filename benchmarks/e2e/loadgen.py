"""Open-loop load generator: requests leave on a schedule, not on replies.

Independent users arrive whether or not the server has answered the
previous one, so a stall delays every request due behind it.  Each
request is therefore timed from when it was *due*, not from when it was
sent; ``sent - due`` is how late the generator itself ran.  At most
``connections`` requests are in flight, one per keep-alive connection
and thread, so all load comes from one process with two threads.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Outcome", "open_loop", "poisson_times"]

#: ``send(conn, request) -> (status, body)``; raising counts as failed.
Send = Callable[[http.client.HTTPConnection, Any], tuple[int, bytes]]


@dataclass
class Outcome:
    """One request's timeline, in seconds from the start of the run."""

    request: Any
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from due time to the last byte of the reply."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent the request after its due time."""
        return self.sent - self.due


def poisson_times(
    rng: random.Random, rate: float, start: float, duration: float
) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` per second."""
    times = []
    t = start + rng.expovariate(rate)
    while t < start + duration:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def open_loop(
    port: int,
    schedule: list[tuple[float, Any]],
    send: Send,
    connections: int = 2,
    timeout: float = 60.0,
) -> list[Outcome]:
    """Send ``(offset, request)`` pairs at ``offset`` seconds from now.

    Requests go out in schedule order on whichever connection is free
    first; if both are busy the next one waits, and its wait counts in
    its latency.  A block of requests all due at once keeps every
    connection busy until it is sent: a closed loop.  A request whose
    ``send`` raises is recorded with status 0.
    """
    start = time.perf_counter()
    outcomes: list[Outcome | None] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due, request = schedule[index]
                delay = start + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter() - start
                try:
                    status, body = send(conn, request)
                except (OSError, http.client.HTTPException) as exc:
                    status, body = 0, repr(exc).encode()
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=timeout
                    )
                outcomes[index] = Outcome(
                    request, due, sent, time.perf_counter() - start,
                    status, body,
                )
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for outcome in outcomes if outcome is not None]
