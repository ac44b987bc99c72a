"""Online failure monitoring over live event streams.

The batch analyses in :mod:`repro.core` answer the paper's questions
over a *finished* log; this package answers the operator's version of
the same questions — MTBF/MTTR, TBF quantiles, category mix, multi-GPU
bursts — *incrementally*, one event at a time, with changepoint
detection and alerting on top.

Quickstart::

    from repro.stream import FailureMonitor, SyntheticSource

    source = SyntheticSource("tsubame3", seed=42)
    monitor = FailureMonitor(window_hours=720.0)
    snapshot = monitor.consume(source)
    monitor.finalize(source.span_hours)
    print(snapshot.format_lines())
    for alert in monitor.alerts:
        print(alert.format_line())

Live simulation::

    from repro.sim import ClusterSimulator

    sim = ClusterSimulator("tsubame2", seed=7)
    monitor = FailureMonitor()
    monitor.attach(sim.engine)       # failures/repairs stream in live
    sim.run(5000.0)

Parity: replaying a full log through a monitor reproduces the batch
MTBF/MTTR exactly (same arithmetic) and quantiles within the sketch's
``epsilon * n`` rank error — see docs/STREAMING.md.
"""

from repro.stream.alerts import (
    Alert,
    AlertRule,
    AlertSeverity,
    AlertSink,
    CallbackSink,
    CategorySurgeRule,
    ListSink,
    MttrDegradationRule,
    MultiGpuBurstRule,
    PrintSink,
    RateShiftRule,
    default_rules,
)
from repro.stream.detectors import (
    CusumDetector,
    Detection,
    MultiGpuBurstDetector,
    PageHinkleyDetector,
)
from repro.stream.events import (
    EventKind,
    StreamEvent,
    ensure_monotonic,
    events_from_log,
)
from repro.stream.monitor import FailureMonitor, MonitorSnapshot
from repro.stream.online import (
    EwmaRate,
    GKQuantileSketch,
    OnlineMtbf,
    OnlineMttr,
    RollingWindowStats,
    Welford,
)
from repro.stream.sources import (
    FileSource,
    ReplaySource,
    SimulationSource,
    SyntheticSource,
    TraceSource,
)
from repro.stream.tolerance import (
    DISORDER_POLICIES,
    StreamStats,
    tolerant_stream,
)

__all__ = [
    "Alert",
    "AlertRule",
    "AlertSeverity",
    "AlertSink",
    "CallbackSink",
    "CategorySurgeRule",
    "CusumDetector",
    "DISORDER_POLICIES",
    "Detection",
    "EventKind",
    "EwmaRate",
    "FailureMonitor",
    "FileSource",
    "GKQuantileSketch",
    "ListSink",
    "MonitorSnapshot",
    "MttrDegradationRule",
    "MultiGpuBurstDetector",
    "MultiGpuBurstRule",
    "OnlineMtbf",
    "OnlineMttr",
    "PageHinkleyDetector",
    "PrintSink",
    "RateShiftRule",
    "ReplaySource",
    "RollingWindowStats",
    "SimulationSource",
    "StreamEvent",
    "StreamStats",
    "SyntheticSource",
    "TraceSource",
    "Welford",
    "default_rules",
    "ensure_monotonic",
    "events_from_log",
    "tolerant_stream",
]
