"""Sweep outcome types, error attribution, and worker-count policy.

The small, dependency-free substrate underneath :mod:`repro.parallel`:
per-item outcome records (:class:`SweepOutcome`), attributed failures
(:class:`SweepItemError`), the retry-bounded single-item runner used by
both the serial loop and the pool workers, and the policy for how many
worker processes "parallel" means on this host.
"""

from __future__ import annotations

import os
import pickle
import time as _time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.errors import SweepError, ValidationError

__all__ = [
    "SweepOutcome",
    "SweepItemError",
    "available_cpus",
    "default_processes",
]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


class SweepItemError(SweepError):
    """One sweep item failed (after any retries).

    Attributes:
        index: Position of the failing item in the input sequence.
        item: The failing item itself.
        attempts: How many times the item was attempted.
        cause: The exception the item raised (also chained as
            ``__cause__`` when this error is raised).
    """

    def __init__(
        self, index: int, item: Any, attempts: int, cause: BaseException
    ) -> None:
        self.index = index
        self.item = item
        self.attempts = attempts
        self.cause = cause
        attempt_text = (
            f" after {attempts} attempts" if attempts > 1 else ""
        )
        super().__init__(
            f"sweep item {index} ({item!r}) failed{attempt_text}: "
            f"{type(cause).__name__}: {cause}"
        )

    def __reduce__(self):
        # The default exception reduce replays __init__ with ``args``
        # (the formatted message), which does not match this
        # constructor — unpickling would raise a secondary TypeError
        # and the attributed failure would degrade to a repr stand-in.
        # Reconstruct from the real constructor arguments instead, so
        # a SweepItemError raised *inside* a worker (e.g. a nested
        # sweep) survives the trip back to the parent typed.
        return (
            type(self),
            (self.index, self.item, self.attempts, self.cause),
        )


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one sweep item under ``return_errors=True``.

    Exactly one of :attr:`result` / :attr:`error` is meaningful; check
    :attr:`ok` (or call :meth:`unwrap`) before touching :attr:`result`.
    """

    index: int
    item: Any
    result: Any = None
    error: BaseException | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the item produced a result."""
        return self.error is None

    def unwrap(self) -> Any:
        """Return the result, or raise the attributed failure.

        Raises:
            SweepItemError: If this item failed.
        """
        if self.error is not None:
            raise SweepItemError(
                self.index, self.item, self.attempts, self.error
            ) from self.error
        return self.result


def available_cpus() -> int:
    """CPUs this process may actually schedule on.

    The CPU-affinity count when the platform reports one (containers
    and batch schedulers often restrict affinity below
    ``os.cpu_count()``), else ``os.cpu_count()``, else 1.  This is the
    *hardware* answer; :func:`default_processes` layers the
    ``REPRO_WORKERS`` policy override on top.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def default_processes() -> int:
    """Worker count to use when the caller just says "parallel".

    ``REPRO_WORKERS`` wins when set (the operator's explicit sizing
    for this deployment — also the CLI default for ``simulate
    --workers`` and ``serve --workers``); otherwise the schedulable
    CPU count from :func:`available_cpus`.

    Raises:
        ValidationError: If ``REPRO_WORKERS`` is set but is not a
            positive integer.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if raw:
        try:
            workers = int(raw)
        except ValueError:
            raise ValidationError(
                f"REPRO_WORKERS must be a positive integer, got {raw!r}"
            ) from None
        if workers < 1:
            raise ValidationError(
                f"REPRO_WORKERS must be >= 1, got {workers}"
            )
        return workers
    return available_cpus()


def validate_sweep_args(
    processes: int | None,
    chunksize: int | None,
    retries: int,
    backoff_seconds: float,
) -> None:
    """Shared argument validation for :func:`sweep` / :func:`sweep_iter`.

    Raises:
        ValidationError: On a non-positive ``processes``/``chunksize``
            or a negative ``retries``/``backoff_seconds``.
    """
    if processes is not None and processes < 1:
        raise ValidationError(
            f"processes must be >= 1, got {processes}"
        )
    if chunksize is not None and chunksize < 1:
        raise ValidationError(
            f"chunksize must be >= 1, got {chunksize}"
        )
    if retries < 0:
        raise ValidationError(f"retries must be >= 0, got {retries}")
    if backoff_seconds < 0:
        raise ValidationError(
            f"backoff_seconds must be >= 0, got {backoff_seconds}"
        )


def picklable_error(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else a
    :class:`SweepError` stand-in carrying its repr.

    Captured worker exceptions travel back to the parent as *data*; an
    unpicklable one would otherwise kill the whole result chunk.  The
    round trip is tested both ways because either direction can fail:
    ``dumps`` on exceptions holding unpicklable state, and ``loads``
    on exception classes whose constructors require arguments that the
    default exception reduce does not replay (their ``dumps``
    succeeds, then reconstruction raises ``TypeError``).
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return SweepError(
            f"worker raised unpicklable {type(exc).__name__}: {exc!r}"
        )


def attempt_item(
    fn: Callable[..., _ResultT],
    item: _ItemT,
    retries: int,
    backoff_seconds: float,
    shared: Any = None,
    has_shared: bool = False,
) -> tuple[Any, BaseException | None, int]:
    """Run one item with bounded retry; never raises ``Exception``.

    Returns ``(result, error, attempts)`` where ``error`` is None on
    success.  Backoff sleeps ``backoff_seconds * 2**(attempt - 1)``
    between attempts.  ``BaseException``s that are not ``Exception``
    (``KeyboardInterrupt``, worker shutdown) propagate.  With
    ``has_shared`` the call is ``fn(item, shared)`` — the shared
    payload protocol of :func:`repro.parallel.sweep`.
    """
    last: BaseException | None = None
    attempts = 0
    for attempt in range(retries + 1):
        attempts = attempt + 1
        try:
            if has_shared:
                return fn(item, shared), None, attempts
            return fn(item), None, attempts
        except Exception as exc:
            last = exc
            if attempt < retries and backoff_seconds > 0:
                _time.sleep(backoff_seconds * (2.0 ** attempt))
    assert last is not None
    return None, last, attempts

