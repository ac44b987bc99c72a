"""The failure monitor: estimators + detectors + alerting, composed.

:class:`FailureMonitor` is the subsystem's front door.  Feed it
:class:`~repro.stream.events.StreamEvent`s one at a time (or attach it
to a running simulation engine) and it maintains, incrementally:

* cumulative MTBF (gap-mean and span estimators) and MTTR,
* a Greenwald-Khanna sketch of the TBF and TTR distributions
  (median/p99 within a guaranteed rank error),
* rolling-window MTBF/MTTR over a trailing operator horizon,
* per-category EWMA failure rates,
* the alert rule catalog of :mod:`repro.stream.alerts`.

Parity guarantee
----------------
Replaying a finished :class:`~repro.core.records.FailureLog` through a
monitor converges to the batch kernels: ``mtbf`` and ``mttr`` match
:mod:`repro.core.metrics` up to float rounding (both are plain means,
one computed by Welford), ``mtbf_span`` matches once ``finalize`` is
called with the full window span, and quantiles carry the sketch's
``epsilon * n`` rank-error bound.  ``tests/stream/test_online_parity``
enforces all of this property-style; tolerances are documented in
docs/STREAMING.md.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import StreamError
from repro.stream.alerts import Alert, AlertRule, AlertSink, default_rules
from repro.stream.events import StreamEvent, subscribe_events
from repro.stream.online import (
    EwmaRate,
    GKQuantileSketch,
    OnlineMtbf,
    OnlineMttr,
    RollingWindowStats,
)
from repro.stream.tolerance import StreamStats, tolerant_stream

__all__ = ["MonitorSnapshot", "FailureMonitor"]


@dataclass(frozen=True)
class MonitorSnapshot:
    """Point-in-time state of a :class:`FailureMonitor`.

    All quantities are in hours unless named otherwise; estimators
    that have not seen enough data report None.
    """

    time_hours: float
    events_seen: int
    failures: int
    repairs: int
    mtbf_hours: float | None
    mtbf_span_hours: float | None
    mttr_hours: float | None
    rolling_mtbf_hours: float | None
    rolling_mttr_hours: float | None
    rolling_window_hours: float
    rolling_failures: int
    tbf_quantiles_hours: dict[float, float] = field(default_factory=dict)
    ttr_quantiles_hours: dict[float, float] = field(default_factory=dict)
    category_rates_per_hour: dict[str, float] = field(default_factory=dict)
    alerts_fired: int = 0
    #: Feed-degradation counters (non-zero only when the monitor
    #: consumed a stream under a tolerant disorder policy).
    events_dropped: int = 0
    events_reordered: int = 0
    duplicates_suppressed: int = 0

    def format_lines(self) -> list[str]:
        """Render the snapshot as aligned report lines."""

        def fmt(value: float | None) -> str:
            return f"{value:10.2f}" if value is not None else f"{'-':>10}"

        lines = [
            f"t={self.time_hours:.1f} h  events={self.events_seen}  "
            f"failures={self.failures}  repairs={self.repairs}  "
            f"alerts={self.alerts_fired}",
            f"  MTBF (gap mean):  {fmt(self.mtbf_hours)} h",
            f"  MTBF (span):      {fmt(self.mtbf_span_hours)} h",
            f"  MTTR:             {fmt(self.mttr_hours)} h",
            f"  rolling {self.rolling_window_hours:.0f} h window: "
            f"MTBF {fmt(self.rolling_mtbf_hours)} h, "
            f"MTTR {fmt(self.rolling_mttr_hours)} h "
            f"({self.rolling_failures} failures)",
        ]
        if self.tbf_quantiles_hours:
            parts = ", ".join(
                f"p{int(q * 100)}={v:.2f}"
                for q, v in sorted(self.tbf_quantiles_hours.items())
            )
            lines.append(f"  TBF quantiles:    {parts} (h)")
        if self.ttr_quantiles_hours:
            parts = ", ".join(
                f"p{int(q * 100)}={v:.2f}"
                for q, v in sorted(self.ttr_quantiles_hours.items())
            )
            lines.append(f"  TTR quantiles:    {parts} (h)")
        if self.category_rates_per_hour:
            top = sorted(
                self.category_rates_per_hour.items(),
                key=lambda kv: kv[1],
                reverse=True,
            )[:5]
            parts = ", ".join(f"{c}={r:.4f}/h" for c, r in top)
            lines.append(f"  category rates:   {parts}")
        if (
            self.events_dropped
            or self.events_reordered
            or self.duplicates_suppressed
        ):
            lines.append(
                f"  feed degradation: {self.events_dropped} dropped, "
                f"{self.events_reordered} reordered, "
                f"{self.duplicates_suppressed} duplicates suppressed"
            )
        return lines


class FailureMonitor:
    """Online failure analytics over a live event stream.

    Args:
        window_hours: Trailing window for rolling MTBF/MTTR (default
            30 days).
        quantiles: TBF/TTR quantiles tracked by the sketches.
        sketch_epsilon: Greenwald-Khanna rank-error bound.
        ewma_tau_hours: Time constant of per-category rates.
        rules: Alert rules to run (defaults to
            :func:`repro.stream.alerts.default_rules`; pass ``[]`` to
            disable alerting).
        sinks: Extra alert sinks; fired alerts are always also kept
            on :attr:`alerts`.
    """

    def __init__(
        self,
        window_hours: float = 720.0,
        quantiles: tuple[float, ...] = (0.5, 0.75, 0.99),
        sketch_epsilon: float = 0.005,
        ewma_tau_hours: float = 168.0,
        rules: list[AlertRule] | None = None,
        sinks: Iterable[AlertSink] = (),
    ) -> None:
        for q in quantiles:
            if not 0.0 < q < 1.0:
                raise StreamError(
                    f"quantiles must lie in (0, 1), got {q}"
                )
        self._quantiles = tuple(quantiles)
        self._mtbf = OnlineMtbf()
        self._mttr = OnlineMttr()
        self._tbf_sketch = GKQuantileSketch(sketch_epsilon)
        self._ttr_sketch = GKQuantileSketch(sketch_epsilon)
        self._rolling_gaps = RollingWindowStats(window_hours)
        self._rolling_ttr = RollingWindowStats(window_hours)
        self._ewma_tau = ewma_tau_hours
        self._category_rates: dict[str, EwmaRate] = {}
        self._rules = default_rules() if rules is None else list(rules)
        self._sinks = list(sinks)
        self._alerts: list[Alert] = []
        self._events = 0
        self._failures = 0
        self._repairs = 0
        self._now = 0.0
        self._stream_stats = StreamStats()

    # -- feeding -----------------------------------------------------------

    @property
    def now_hours(self) -> float:
        """Time of the latest event observed."""
        return self._now

    @property
    def events_seen(self) -> int:
        return self._events

    @property
    def failures_seen(self) -> int:
        return self._failures

    @property
    def repairs_seen(self) -> int:
        return self._repairs

    @property
    def alerts(self) -> list[Alert]:
        """Every alert fired so far, in order."""
        return list(self._alerts)

    @property
    def rules(self) -> list[AlertRule]:
        return list(self._rules)

    def add_sink(self, sink: AlertSink) -> None:
        """Attach another alert sink."""
        self._sinks.append(sink)

    def observe(self, event: StreamEvent) -> list[Alert]:
        """Feed one event; returns the alerts it triggered (if any).

        Raises:
            StreamError: If the event's time precedes the previous
                event's (streams must be monotonic).
        """
        if event.time_hours < self._now:
            raise StreamError(
                f"monitor fed out of order: {event.time_hours} h after "
                f"{self._now} h"
            )
        self._now = event.time_hours
        self._events += 1
        if event.is_failure:
            self._observe_failure(event)
        else:
            self._repairs += 1

        fired: list[Alert] = []
        for rule in self._rules:
            alert = rule.observe(event)
            if alert is not None:
                fired.append(alert)
        for alert in fired:
            self._alerts.append(alert)
            for sink in self._sinks:
                sink.emit(alert)
        return fired

    def observe_many(self, events: Iterable[StreamEvent]) -> list[Alert]:
        """Feed a batch of events; returns every alert triggered.

        Exactly equivalent to calling :meth:`observe` per event (same
        estimator updates, same ordering checks, same alert sequence —
        the parity is asserted in the test suite) but with the
        per-call attribute lookups hoisted, which matters when a
        simulation hands over thousands of buffered events at once.

        Raises:
            StreamError: At the first out-of-order event; events
                before it are already folded in, the rest of the batch
                is not consumed.
        """
        observe = self.observe
        fired: list[Alert] = []
        for event in events:
            fired.extend(observe(event))
        return fired

    def _observe_failure(self, event: StreamEvent) -> None:
        self._failures += 1
        gap = self._mtbf.push_failure(event.time_hours)
        if gap is not None:
            self._tbf_sketch.push(gap)
            self._rolling_gaps.push(event.time_hours, gap)
        else:
            self._rolling_gaps.advance_to(event.time_hours)
        record = event.record
        if record is not None:
            self._mttr.push_ttr(record.ttr_hours)
            self._ttr_sketch.push(record.ttr_hours)
            self._rolling_ttr.push(event.time_hours, record.ttr_hours)
        rate = self._category_rates.setdefault(
            event.category, EwmaRate(self._ewma_tau)
        )
        rate.push(event.time_hours)

    @property
    def stream_stats(self) -> StreamStats:
        """Feed-degradation counters accumulated by tolerant consumes."""
        return self._stream_stats

    def consume(
        self,
        events: Iterable[StreamEvent],
        on_disorder: str = "raise",
        window_hours: float = 0.0,
        drop_duplicates: bool = False,
    ) -> "MonitorSnapshot":
        """Drain an event iterable and return the final snapshot.

        Args:
            events: The stream to drain.
            on_disorder: Disorder policy applied before observation —
                ``"raise"`` (strict, the default), ``"drop"``, or
                ``"buffer"`` with a bounded reordering window; see
                :func:`repro.stream.tolerance.tolerant_stream`.
            window_hours: Reordering window for ``"buffer"`` and the
                duplicate-suppression lookback.
            drop_duplicates: Suppress exact re-deliveries.

        Dropped/reordered/duplicate counts accumulate on
        :attr:`stream_stats` and appear in every later snapshot.
        """
        if (
            on_disorder == "raise"
            and not drop_duplicates
            and window_hours == 0.0
        ):
            self.observe_many(events)
            return self.snapshot()
        for event in tolerant_stream(
            events,
            on_disorder=on_disorder,
            window_hours=window_hours,
            drop_duplicates=drop_duplicates,
            stats=self._stream_stats,
        ):
            self.observe(event)
        return self.snapshot()

    def attach(self, engine) -> None:
        """Subscribe to a simulation engine's live event bus.

        The engine must expose the ``subscribe(topic, callback)`` API
        of :class:`repro.sim.engine.SimulationEngine`; failures and
        repair completions published by the fault injector and repair
        service then flow into this monitor as the simulation runs.
        """
        subscribe_events(engine, self.observe)

    # -- reading -----------------------------------------------------------

    def finalize(self, elapsed_hours: float | None = None) -> None:
        """Advance the clock past the last event (end of observation).

        Replays of a finished log should call this with the log's
        ``span_hours`` so the span-MTBF estimator sees the full
        window, not just the stretch up to the last failure.
        """
        if elapsed_hours is not None:
            # Repairs may already have pushed the clock past the
            # nominal window end; never move it backwards.
            self._now = max(self._now, elapsed_hours)
        self._rolling_gaps.advance_to(self._now)
        self._rolling_ttr.advance_to(self._now)

    def tbf_quantile(self, q: float) -> float | None:
        """Sketch estimate of a TBF quantile (None with no gaps yet)."""
        if self._tbf_sketch.n == 0:
            return None
        return self._tbf_sketch.value(q)

    def ttr_quantile(self, q: float) -> float | None:
        """Sketch estimate of a TTR quantile (None with no data yet)."""
        if self._ttr_sketch.n == 0:
            return None
        return self._ttr_sketch.value(q)

    @property
    def sketch_epsilon(self) -> float:
        return self._tbf_sketch.epsilon

    def category_rates_per_hour(self) -> dict[str, float]:
        """Current per-category EWMA failure rates."""
        return {
            category: rate.rate_per_hour(self._now)
            for category, rate in sorted(self._category_rates.items())
        }

    def snapshot(self) -> MonitorSnapshot:
        """Summarise everything the monitor currently knows."""
        rolling_gap_mean = self._rolling_gaps.mean
        rolling_ttr_mean = self._rolling_ttr.mean
        return MonitorSnapshot(
            time_hours=self._now,
            events_seen=self._events,
            failures=self._failures,
            repairs=self._repairs,
            mtbf_hours=self._mtbf.mtbf_hours,
            mtbf_span_hours=self._mtbf.mtbf_span_hours(self._now),
            mttr_hours=self._mttr.mttr_hours,
            rolling_mtbf_hours=rolling_gap_mean,
            rolling_mttr_hours=rolling_ttr_mean,
            rolling_window_hours=self._rolling_gaps.window_hours,
            rolling_failures=self._rolling_gaps.count,
            tbf_quantiles_hours={
                q: value
                for q in self._quantiles
                if (value := self.tbf_quantile(q)) is not None
            },
            ttr_quantiles_hours={
                q: value
                for q in self._quantiles
                if (value := self.ttr_quantile(q)) is not None
            },
            category_rates_per_hour=self.category_rates_per_hour(),
            alerts_fired=len(self._alerts),
            events_dropped=self._stream_stats.dropped,
            events_reordered=self._stream_stats.reordered,
            duplicates_suppressed=self._stream_stats.duplicates,
        )
