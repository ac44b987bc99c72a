"""Incremental estimators for live failure streams.

Every estimator here consumes one observation at a time in O(1) or
O(log n) work and bounded memory, and converges to its batch
counterpart in :mod:`repro.core`:

* :class:`Welford` — numerically stable running mean/variance
  (Welford 1962).  Its mean is *exactly* the batch mean up to float
  rounding, which is what makes the monitor's MTBF/MTTR parity
  guarantee tight.
* :class:`GKQuantileSketch` — the Greenwald-Khanna sketch (SIGMOD
  2001): any quantile with a *guaranteed* rank error of at most
  ``epsilon * n``, in O((1/epsilon) log(epsilon n)) memory.  This is
  the sketch behind the monitor's median/p99 TBF tolerance.
* :class:`RollingWindowStats` — exact mean/count over a trailing
  time window (memory proportional to events in the window).
* :class:`EwmaRate` — exponentially weighted event rate (events per
  hour), the streaming analogue of a windowed count.
* :class:`OnlineMtbf` / :class:`OnlineMttr` — the headline reliability
  metrics assembled from the pieces above.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import StreamError

__all__ = [
    "Welford",
    "GKQuantileSketch",
    "RollingWindowStats",
    "EwmaRate",
    "OnlineMtbf",
    "OnlineMttr",
]


class Welford:
    """Running mean and variance, one value at a time."""

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def n(self) -> int:
        """Observations seen."""
        return self._n

    @property
    def mean(self) -> float:
        """Running mean (0.0 before any observation)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1; 0.0 with fewer than 2 values)."""
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def push(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)

    def push_many(self, values) -> None:
        """Fold an iterable of observations, in order.

        Deliberately a sequential loop rather than a Chan-style moment
        merge: the result is *bit-identical* to pushing each value with
        :meth:`push`, which is the parity contract batch ingestion
        (``FailureMonitor.observe_many``) is tested against.
        """
        n = self._n
        mean = self._mean
        m2 = self._m2
        for value in values:
            n += 1
            delta = value - mean
            mean += delta / n
            m2 += delta * (value - mean)
        self._n = n
        self._mean = mean
        self._m2 = m2

    def state(self) -> dict:
        """JSON-serializable snapshot of the running moments.

        Restoring via :meth:`from_state` is bit-identical: the same
        future pushes yield the same mean/variance as if the estimator
        had never been persisted.  This is what lets the persistent
        store (:mod:`repro.store.views`) keep its materialized
        analytics incremental across process restarts.
        """
        return {"n": self._n, "mean": self._mean, "m2": self._m2}

    @classmethod
    def from_state(cls, state: dict) -> "Welford":
        """Rebuild an estimator from a :meth:`state` snapshot."""
        est = cls()
        est._n = int(state["n"])
        est._mean = float(state["mean"])
        est._m2 = float(state["m2"])
        return est

    @classmethod
    def merged(cls, estimators: "list[Welford]") -> "Welford":
        """Combine independent estimators (Chan et al. 1979).

        The merge algebra behind fleet telemetry: each serve shard
        keeps its own per-endpoint latency moments, and the router
        rolls them up into one estimator whose mean is exact and whose
        variance matches pushing every shard's observations into a
        single accumulator (up to float rounding — *not* the
        bit-identity contract :meth:`push_many` keeps, which is why
        the sequential path stays separate).
        """
        out = cls()
        for est in estimators:
            if est._n == 0:
                continue
            if out._n == 0:
                out._n, out._mean, out._m2 = est._n, est._mean, est._m2
                continue
            n = out._n + est._n
            delta = est._mean - out._mean
            out._mean += delta * est._n / n
            out._m2 += est._m2 + delta * delta * out._n * est._n / n
            out._n = n
        return out


@dataclass
class _GKTuple:
    value: float
    g: int
    delta: int


_tuple_value = attrgetter("value")


class GKQuantileSketch:
    """Greenwald-Khanna epsilon-approximate quantile sketch.

    Any quantile query is answered with a value whose *rank* in the
    stream so far is within ``epsilon * n`` of the exact target rank —
    a guarantee that holds for every distribution and arrival order.
    The monitor documents its TBF median/p99 tolerance in exactly
    these terms (docs/STREAMING.md).

    Args:
        epsilon: Rank-error bound as a fraction of the stream length
            (default 0.005: a p99 over 10 000 gaps is off by at most
            50 ranks).
    """

    def __init__(self, epsilon: float = 0.005) -> None:
        if not 0.0 < epsilon < 0.5:
            raise StreamError(
                f"epsilon must lie in (0, 0.5), got {epsilon}"
            )
        self._epsilon = epsilon
        self._tuples: list[_GKTuple] = []
        self._n = 0
        self._compress_every = max(1, int(1.0 / (2.0 * epsilon)))

    @property
    def n(self) -> int:
        """Observations seen."""
        return self._n

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def size(self) -> int:
        """Stored tuples (the sketch's memory footprint)."""
        return len(self._tuples)

    def push(self, value: float) -> None:
        """Insert one observation."""
        band = int(2.0 * self._epsilon * self._n)
        # The insertion index by value: the first tuple not below it.
        lo = bisect_left(self._tuples, value, key=_tuple_value)
        if lo == 0 or lo == len(self._tuples):
            delta = 0
        else:
            delta = max(band - 1, 0)
        self._tuples.insert(lo, _GKTuple(value, 1, delta))
        self._n += 1
        if self._n % self._compress_every == 0:
            self._compress()

    def push_many(self, values) -> None:
        """Insert an iterable of observations, in order.

        A plain loop over :meth:`push` (not a sketch merge), so the
        resulting tuple list — and every subsequent quantile answer —
        is bit-identical to single-value insertion.
        """
        for value in values:
            self.push(value)

    def state(self) -> dict:
        """JSON-serializable snapshot of the sketch.

        The tuple list is captured verbatim, so a sketch restored with
        :meth:`from_state` answers every future query bit-identically
        to one that was never persisted.
        """
        return {
            "epsilon": self._epsilon,
            "n": self._n,
            "tuples": [[t.value, t.g, t.delta] for t in self._tuples],
        }

    @classmethod
    def from_state(cls, state: dict) -> "GKQuantileSketch":
        """Rebuild a sketch from a :meth:`state` snapshot.

        The tuples are built on the sketch's first use, so restoring a
        sketch that is never queried (a store's diagnostic sketches on
        the serving path) costs no object per tuple.
        """
        sketch = cls(epsilon=float(state["epsilon"]))
        sketch._n = int(state["n"])
        del sketch._tuples
        sketch._saved_tuples = state["tuples"]
        return sketch

    def __getattr__(self, name: str):
        # Reached only for attributes not set: a restored sketch's
        # tuples before their first use.
        if name != "_tuples" or "_saved_tuples" not in self.__dict__:
            raise AttributeError(name)
        self._tuples = [
            _GKTuple(float(value), int(g), int(delta))
            for value, g, delta in self.__dict__.pop("_saved_tuples")
        ]
        return self._tuples

    @classmethod
    def merged(
        cls, sketches: "list[GKQuantileSketch]"
    ) -> "GKQuantileSketch":
        """Combine independent sketches into one (conservative merge).

        Tuple lists are merged by value; each tuple's ``delta`` is
        inflated by the other sketches' worst-case rank uncertainty,
        so every rank bound stays valid over the concatenated stream.
        The price is additive error: merging sketches of rank error
        ``eps_i * n_i`` yields a sketch whose error bound is
        ``sum(eps_i)`` of the combined count — fine for fleet
        telemetry rollups (a p99 over four 1%-sketches is within 4%
        rank error), not a substitute for one sketch over one stream.
        """
        live = [s for s in sketches if s._n]
        if not live:
            return cls()
        epsilon = min(0.499, sum(s._epsilon for s in live))
        merged = cls(epsilon=epsilon)
        entries: list[tuple[float, int, int]] = []
        for sketch in live:
            others = sum(
                int(2.0 * other._epsilon * other._n)
                for other in live
                if other is not sketch
            )
            for entry in sketch._tuples:
                entries.append(
                    (entry.value, entry.g, entry.delta + others)
                )
        entries.sort(key=lambda entry: entry[0])
        merged._tuples = [
            _GKTuple(value, g, delta) for value, g, delta in entries
        ]
        merged._n = sum(s._n for s in live)
        merged._compress()
        return merged

    def _compress(self) -> None:
        limit = int(2.0 * self._epsilon * self._n)
        tuples = self._tuples
        i = len(tuples) - 2
        while i >= 1:
            left, right = tuples[i], tuples[i + 1]
            if left.g + right.g + right.delta <= limit:
                right.g += left.g
                del tuples[i]
            i -= 1

    def value(self, q: float) -> float:
        """Estimate the ``q`` quantile of everything seen so far.

        Raises:
            StreamError: Before the first observation or for a
                quantile outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise StreamError(f"quantile must lie in [0, 1], got {q}")
        if self._n == 0:
            raise StreamError("GKQuantileSketch has seen no observations")
        target = max(1, math.ceil(q * self._n))
        bound = self._epsilon * self._n
        rmin = 0
        best = self._tuples[-1].value
        for entry in self._tuples:
            rmin += entry.g
            rmax = rmin + entry.delta
            if target - rmin <= bound and rmax - target <= bound:
                best = entry.value
                break
        return best


class RollingWindowStats:
    """Exact mean/count over a trailing time window.

    Values are pushed with their event time (hours); querying first
    evicts everything older than ``window_hours`` behind the newest
    ``advance_to`` time.
    """

    def __init__(self, window_hours: float) -> None:
        if window_hours <= 0:
            raise StreamError(
                f"window_hours must be positive, got {window_hours}"
            )
        self._window = window_hours
        self._entries: deque[tuple[float, float]] = deque()
        self._sum = 0.0
        self._now = 0.0

    @property
    def window_hours(self) -> float:
        return self._window

    def push(self, time_hours: float, value: float) -> None:
        """Record a value observed at a point in time."""
        self.advance_to(time_hours)
        self._entries.append((time_hours, value))
        self._sum += value

    def advance_to(self, time_hours: float) -> None:
        """Move the window edge forward, evicting expired entries."""
        if time_hours < self._now:
            raise StreamError(
                f"window time went backwards: {time_hours} h after "
                f"{self._now} h"
            )
        self._now = time_hours
        horizon = time_hours - self._window
        entries = self._entries
        while entries and entries[0][0] < horizon:
            self._sum -= entries.popleft()[1]

    @property
    def count(self) -> int:
        """Entries currently inside the window."""
        return len(self._entries)

    @property
    def mean(self) -> float | None:
        """Mean of in-window values (None when the window is empty)."""
        if not self._entries:
            return None
        return self._sum / len(self._entries)


class EwmaRate:
    """Exponentially weighted event rate in events per hour.

    Each arrival contributes a unit mass that decays with time
    constant ``tau_hours``; the rate estimate is the decayed mass
    divided by ``tau``.  After many arrivals of a Poisson process with
    rate r, the estimate converges to r.
    """

    def __init__(self, tau_hours: float = 168.0) -> None:
        if tau_hours <= 0:
            raise StreamError(
                f"tau_hours must be positive, got {tau_hours}"
            )
        self._tau = tau_hours
        self._mass = 0.0
        self._last = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        """Arrivals recorded."""
        return self._count

    def push(self, time_hours: float) -> None:
        """Record one arrival."""
        self._decay(time_hours)
        self._mass += 1.0
        self._count += 1

    def _decay(self, time_hours: float) -> None:
        if time_hours < self._last:
            raise StreamError(
                f"EWMA time went backwards: {time_hours} h after "
                f"{self._last} h"
            )
        self._mass *= math.exp(-(time_hours - self._last) / self._tau)
        self._last = time_hours

    def rate_per_hour(self, time_hours: float | None = None) -> float:
        """Current rate estimate, decayed to ``time_hours``."""
        if time_hours is not None:
            self._decay(time_hours)
        return self._mass / self._tau

    def state(self) -> dict:
        """JSON-serializable snapshot of the decayed mass."""
        return {
            "tau": self._tau,
            "mass": self._mass,
            "last": self._last,
            "count": self._count,
        }

    @classmethod
    def from_state(cls, state: dict) -> "EwmaRate":
        """Rebuild a rate estimator from a :meth:`state` snapshot."""
        est = cls(tau_hours=float(state["tau"]))
        est._mass = float(state["mass"])
        est._last = float(state["last"])
        est._count = int(state["count"])
        return est


class OnlineMtbf:
    """Streaming MTBF: both estimators the batch layer reports.

    ``mtbf`` is the running mean of the gap series — it matches
    :func:`repro.core.metrics.mtbf` exactly (same arithmetic,
    streaming order).  ``mtbf_span`` divides observed span by count,
    matching :func:`repro.core.metrics.mtbf_span` once the stream has
    covered the full window.
    """

    def __init__(self) -> None:
        self._gaps = Welford()
        self._last_failure: float | None = None
        self._failures = 0

    @property
    def failures(self) -> int:
        return self._failures

    @property
    def gap_count(self) -> int:
        return self._gaps.n

    def push_failure(self, time_hours: float) -> float | None:
        """Record a failure; returns the gap it closed (None if first)."""
        gap = None
        if self._last_failure is not None:
            gap = time_hours - self._last_failure
            if gap < 0:
                raise StreamError(
                    f"failure stream went backwards: {time_hours} h "
                    f"after {self._last_failure} h"
                )
            self._gaps.push(gap)
        self._last_failure = time_hours
        self._failures += 1
        return gap

    @property
    def mtbf_hours(self) -> float | None:
        """Mean of the gap series (None with fewer than 2 failures)."""
        if self._gaps.n == 0:
            return None
        return self._gaps.mean

    def mtbf_span_hours(self, elapsed_hours: float) -> float | None:
        """Observed span over failure count (None before any failure)."""
        if self._failures == 0:
            return None
        return elapsed_hours / self._failures

    @property
    def gap_std_hours(self) -> float:
        return self._gaps.std


class OnlineMttr:
    """Streaming MTTR: running mean/std of per-failure recovery times.

    Matches :func:`repro.core.metrics.mttr` exactly (same mean, fed
    in stream order).
    """

    def __init__(self) -> None:
        self._ttr = Welford()

    @property
    def n(self) -> int:
        return self._ttr.n

    def push_ttr(self, ttr_hours: float) -> None:
        if ttr_hours < 0:
            raise StreamError(
                f"ttr_hours must be non-negative, got {ttr_hours}"
            )
        self._ttr.push(ttr_hours)

    @property
    def mttr_hours(self) -> float | None:
        """Running MTTR (None before the first recovery)."""
        if self._ttr.n == 0:
            return None
        return self._ttr.mean

    @property
    def ttr_std_hours(self) -> float:
        return self._ttr.std
