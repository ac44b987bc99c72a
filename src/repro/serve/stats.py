"""Live service telemetry for ``/statsz`` and ``/healthz``.

The serving layer reuses the same constant-memory estimators the
streaming subsystem runs on failure feeds (:mod:`repro.stream.online`):
per-endpoint request latency flows through a Welford accumulator (mean
and spread) and a Greenwald-Khanna sketch (p50/p95/p99 with a bounded
rank error), and the instantaneous request rate is an
:class:`~repro.stream.online.EwmaRate` with a seconds-scale time
constant.  ``/statsz`` is therefore O(1) memory no matter how long the
server runs — the monitors never hold a request history.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.stream.online import EwmaRate, GKQuantileSketch, Welford

__all__ = ["EndpointStats", "ServerStats"]

#: Latency quantiles reported per endpoint.
_QUANTILES = (0.5, 0.95, 0.99)


class EndpointStats:
    """Latency and status accounting for one endpoint family."""

    def __init__(self) -> None:
        self.requests = 0
        self.by_status: dict[str, int] = {}
        self._latency_ms = Welford()
        self._sketch = GKQuantileSketch(epsilon=0.01)

    def observe(self, status: int, latency_seconds: float) -> None:
        self.requests += 1
        status_class = f"{status // 100}xx"
        self.by_status[status_class] = (
            self.by_status.get(status_class, 0) + 1
        )
        latency_ms = latency_seconds * 1e3
        self._latency_ms.push(latency_ms)
        self._sketch.push(latency_ms)

    def snapshot(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "requests": self.requests,
            "by_status": dict(sorted(self.by_status.items())),
            "latency_ms": {
                "mean": self._latency_ms.mean,
                "std": self._latency_ms.std,
            },
        }
        if self._sketch.n:
            payload["latency_ms"].update(
                {
                    f"p{int(q * 100)}": self._sketch.value(q)
                    for q in _QUANTILES
                }
            )
        return payload


class ServerStats:
    """Whole-service counters plus per-endpoint monitors.

    Args:
        rate_tau_seconds: Time constant of the EWMA request rate —
            small (seconds) so ``/statsz`` reflects *current* load,
            not the lifetime average.
        clock: Injectable monotonic clock.
    """

    def __init__(
        self,
        rate_tau_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._started = clock()
        self._rate = EwmaRate(tau_hours=rate_tau_seconds / 3600.0)
        self._endpoints: dict[str, EndpointStats] = {}
        self.requests_total = 0
        self.errors_5xx = 0
        self.shed_total = 0

    @property
    def uptime_seconds(self) -> float:
        return self._clock() - self._started

    def _elapsed_hours(self) -> float:
        return (self._clock() - self._started) / 3600.0

    def observe(
        self, endpoint: str, status: int, latency_seconds: float
    ) -> None:
        """Fold one finished request into the monitors."""
        self.requests_total += 1
        if status in (429, 503):
            # Deliberate load shedding, not a failure.
            self.shed_total += 1
        elif status >= 500:
            self.errors_5xx += 1
        self._rate.push(self._elapsed_hours())
        stats = self._endpoints.setdefault(endpoint, EndpointStats())
        stats.observe(status, latency_seconds)

    def requests_per_second(self) -> float:
        """EWMA request rate, decayed to now."""
        return self._rate.rate_per_hour(self._elapsed_hours()) / 3600.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "uptime_seconds": self.uptime_seconds,
            "requests_total": self.requests_total,
            "errors_5xx": self.errors_5xx,
            "shed_total": self.shed_total,
            "requests_per_second": self.requests_per_second(),
            "endpoints": {
                name: stats.snapshot()
                for name, stats in sorted(self._endpoints.items())
            },
        }

