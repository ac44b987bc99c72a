"""Deterministic, fault-tolerant sweeps on the warm worker pool.

:func:`sweep` / :func:`sweep_iter` return input-ordered results
bit-identical to the serial loop, with attributed failures, bounded
retries and crash recovery.  :func:`sweep` is ``list(sweep_iter(...))``
unwrapped, so both share one dispatch loop:

* **Warm pool** (:mod:`repro.parallel.pool`): dispatch goes to the
  process-lifetime singleton, so the fork + import cost is paid once
  per process, not once per sweep.

* **Shared payload**: a sweep whose items all read one large object
  passes it once as ``shared=obj``; ``fn`` is then called as
  ``fn(item, obj)``.  A parallel run pickles the object once per
  sweep and every chunk carries ``(token, bytes)``; a worker unpickles
  the bytes the first time it sees the token and reuses the object
  for the rest of the sweep.  Serially the very same object is handed
  to ``fn``.  Either way ``fn`` sees an equal object, preserving
  parity.

* **Work-stealing dispatch with autotuned chunking**: items are split
  into many small chunks on the executor's shared call queue, so a
  worker that drew a fast chunk immediately steals the next instead
  of idling behind a slow sibling.  The first ``processes`` items go
  out as single-item probes; the time to the first completion
  estimates the per-item cost, and the remaining items are chunked to
  about 20 ms of work each.  An explicit ``chunksize=`` bypasses the
  autotuner.

Failures come back attributed (:class:`SweepItemError` / per-item
:class:`SweepOutcome`).  A worker process dying mid-sweep
(``BrokenProcessPool``) keeps finished chunks, re-runs unfinished
ones in the parent, and respawns the warm pool for the next caller.
``KeyboardInterrupt`` during a sweep shuts the pool down before
propagating, so an interrupted CLI exits 130 without waiting on
orphaned workers.
"""

from __future__ import annotations

import math
import pickle
import time
import uuid
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, TypeVar

from repro.parallel.outcomes import (
    SweepOutcome,
    attempt_item,
    picklable_error,
    validate_sweep_args,
)
from repro.parallel.pool import get_pool, shutdown_pool

__all__ = ["sweep", "sweep_iter"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Work per autotuned chunk.
_CHUNK_TARGET_S = 0.020

#: Autotuned chunks per worker, floor — keeps enough chunks in the
#: queue that uneven lengths can be stolen around.
_CHUNKS_PER_WORKER = 4

#: Shared payloads a worker keeps unpickled; the oldest goes first.
_SHARED_CACHE_CAP = 4

_Triple = tuple[Any, BaseException | None, int]

#: token -> unpickled shared payload, in insertion order.
_shared_cache: dict[str, Any] = {}


def _load_shared(token: str, data: bytes) -> Any:
    """The sweep's shared payload in this process, unpickled once per
    token."""
    if token in _shared_cache:
        return _shared_cache[token]
    value = pickle.loads(data)
    while len(_shared_cache) >= _SHARED_CACHE_CAP:
        del _shared_cache[next(iter(_shared_cache))]
    _shared_cache[token] = value
    return value


def _run_chunk(
    fn: Callable[..., Any],
    chunk: Sequence[Any],
    retries: int,
    backoff_seconds: float,
    shared: Any,
    has_shared: bool,
    packed: tuple[str, bytes] | None = None,
) -> list[_Triple]:
    """Run a chunk, capturing per-item failures.

    Workers get the shared payload as ``packed``, the sweep's
    ``(token, bytes)``; the parent, re-running a chunk after the pool
    broke, passes the object itself as ``shared``.
    """
    if packed is not None:
        try:
            shared = _load_shared(*packed)
        except Exception as exc:
            return [(None, picklable_error(exc), 1)] * len(chunk)
    out = []
    for item in chunk:
        result, error, attempts = attempt_item(
            fn, item, retries, backoff_seconds, shared, has_shared
        )
        if error is not None:
            error = picklable_error(error)
        out.append((result, error, attempts))
    return out


def _plan_and_submit(
    executor: Any,
    fn: Callable[..., Any],
    items: Sequence[Any],
    processes: int,
    chunksize: int | None,
    retries: int,
    backoff_seconds: float,
    has_shared: bool,
    packed: tuple[str, bytes] | None,
) -> list[tuple[Sequence[Any], Future | None]]:
    """Chunk ``items`` and submit every chunk, in input order.

    With an explicit ``chunksize`` the split is fixed.  Otherwise the
    first ``min(processes, n)`` items go out immediately as
    single-item probe chunks; the first probe to finish calibrates
    the per-item cost and the tail is chunked to the time target —
    small enough that ``_CHUNKS_PER_WORKER`` chunks per worker stay
    available for stealing, large enough to amortise dispatch.  A
    ``None`` future marks a chunk the executor refused (another thread
    respawned or grew the pool); the caller runs it in-process.
    """
    entries: list[tuple[Sequence[Any], Future | None]] = []

    def submit(start: int, stop: int) -> None:
        chunk = items[start:stop]
        try:
            future = executor.submit(
                _run_chunk, fn, chunk, retries, backoff_seconds,
                None, has_shared, packed,
            )
        except RuntimeError:
            future = None
        entries.append((chunk, future))

    if chunksize is not None:
        for start in range(0, len(items), chunksize):
            submit(start, start + chunksize)
        return entries

    probe_count = min(processes, len(items))
    probe_started = time.perf_counter()
    for index in range(probe_count):
        submit(index, index + 1)
    remaining = len(items) - probe_count
    if remaining == 0:
        return entries

    per_item: float | None = None
    probe_futures = [f for (_, f) in entries if f is not None]
    if probe_futures:
        done, _pending = wait(
            probe_futures, return_when=FIRST_COMPLETED
        )
        if any(f.exception() is None for f in done):
            per_item = max(
                time.perf_counter() - probe_started, 1e-6
            )

    stealing_cap = max(
        1, math.ceil(remaining / (processes * _CHUNKS_PER_WORKER))
    )
    if per_item is None:
        # Probes all failed (e.g. the pool just broke): skip tuning,
        # keep the stealing floor, and let harvest-side recovery deal
        # with the failures.
        size = stealing_cap
    else:
        size = max(1, min(int(_CHUNK_TARGET_S / per_item), stealing_cap))
    for start in range(probe_count, len(items), size):
        submit(start, start + size)
    return entries


def sweep(
    fn: Callable[..., _ResultT],
    seeds: Iterable[_ItemT],
    processes: int | None = None,
    chunksize: int | None = None,
    return_errors: bool = False,
    retries: int = 0,
    backoff_seconds: float = 0.0,
    shared: Any = None,
) -> list[_ResultT] | list[SweepOutcome]:
    """Apply ``fn`` to every seed, optionally across processes.

    Args:
        fn: Pure function of one item — or of ``(item, shared)`` when
            ``shared`` is passed.  Must be picklable (defined at
            module level) when ``processes > 1``.
        seeds: Work items — RNG seeds for Monte-Carlo replication, or
            any other per-run parameter objects.
        processes: ``None`` or ``1`` runs the serial loop in-process;
            ``N > 1`` dispatches to the process-wide warm pool (grown
            to at least N workers).  Worker scheduling never affects
            results: the merge is seed-ordered.
        chunksize: Items per dispatched task; default autotunes from
            a probe of the first items (see module docs).
        return_errors: When True, return one :class:`SweepOutcome` per
            item (in seed order) instead of raw results; failures are
            captured per item rather than raised, so every healthy
            seed still yields its result.
        retries: Re-run an item that raised up to this many extra
            times before recording/raising the failure.
        backoff_seconds: Base of the exponential backoff slept between
            retry attempts (``backoff * 2**attempt``); 0 retries
            immediately.
        shared: One sweep-wide read-only object handed to every call
            as ``fn(item, shared)``.  Parallel runs pickle it once
            per sweep and each worker unpickles it once, instead of
            once per task; serial runs pass the object through
            untouched.

    Returns:
        ``[fn(s) for s in seeds]`` — same values, same order,
        regardless of ``processes`` — or a list of
        :class:`SweepOutcome` when ``return_errors`` is True.

    Raises:
        ValidationError: On a non-positive ``processes``/``chunksize``
            or a negative ``retries``/``backoff_seconds``.
        SweepItemError: When an item fails (after retries) and
            ``return_errors`` is False.  The error names the first
            failed item's index and repr and chains the worker
            exception as ``__cause__``.
    """
    outcomes = list(
        sweep_iter(
            fn, seeds, processes, chunksize, retries, backoff_seconds,
            shared,
        )
    )
    if return_errors:
        return outcomes
    return [outcome.unwrap() for outcome in outcomes]


def sweep_iter(
    fn: Callable[..., _ResultT],
    seeds: Iterable[_ItemT],
    processes: int | None = None,
    chunksize: int | None = None,
    retries: int = 0,
    backoff_seconds: float = 0.0,
    shared: Any = None,
) -> Iterator[SweepOutcome]:
    """Stream :class:`SweepOutcome`s in input order as they finish.

    The generator form of ``sweep(..., return_errors=True)``:
    outcomes are yielded chunk by chunk instead of materialised, so a
    consumer folding a large replication ensemble into online
    statistics holds one chunk of results at a time, not all of them.
    Later chunks keep computing in the pool while earlier ones are
    consumed; abandoning the generator early cancels what has not
    started while the pool itself stays warm for the next sweep.

    Args match :func:`sweep`.  Failures are captured per item, never
    raised; a dead worker's unfinished chunks re-run in-process and
    the pool respawns.

    Raises:
        ValidationError: On the same invalid arguments as
            :func:`sweep`.
    """
    validate_sweep_args(processes, chunksize, retries, backoff_seconds)
    items: Sequence[_ItemT] = list(seeds)
    if not items:
        return
    has_shared = shared is not None
    if processes is None or processes == 1 or len(items) == 1:
        for index, item in enumerate(items):
            result, error, attempts = attempt_item(
                fn, item, retries, backoff_seconds, shared, has_shared
            )
            yield SweepOutcome(
                index=index,
                item=item,
                result=result,
                error=error,
                attempts=attempts,
            )
        return

    pool = get_pool(processes)
    executor, generation = pool.executor()
    packed = (
        (
            uuid.uuid4().hex,
            pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL),
        )
        if has_shared
        else None
    )
    entries: list[tuple[Sequence[Any], Future | None]] = []
    try:
        entries = _plan_and_submit(
            executor, fn, items, processes, chunksize,
            retries, backoff_seconds, has_shared, packed,
        )
        start = 0
        notified_broken = False
        for chunk, future in entries:
            triples: list[_Triple] | None = None
            if future is not None:
                try:
                    triples = future.result()
                except BrokenProcessPool:
                    pass
            if triples is None:
                # A worker died (crash/OOM/_exit) or the executor
                # refused the chunk.  Finished chunks keep their
                # results; this one and every later one the pool never
                # ran re-run here, and the pool respawns for the next
                # caller (a no-op if it was already replaced).
                if not notified_broken:
                    pool.notify_broken(generation)
                    notified_broken = True
                triples = _run_chunk(
                    fn, chunk, retries, backoff_seconds,
                    shared, has_shared,
                )
            for offset, (item, (result, error, attempts)) in (
                enumerate(zip(chunk, triples))
            ):
                yield SweepOutcome(
                    index=start + offset,
                    item=item,
                    result=result,
                    error=error,
                    attempts=attempts,
                )
            start += len(chunk)
    except KeyboardInterrupt:
        # Workers must not outlive an interrupted parent; the CLI's
        # exit-130 contract depends on not blocking here.
        shutdown_pool()
        raise
    finally:
        # Normal exit, close(), or an exception: drop what has not
        # started.  Cancelling is cheap and idempotent; chunks already
        # running finish in the (still warm) pool and are discarded.
        for _chunk, future in entries:
            if future is not None:
                future.cancel()
