"""The five ``/analyze`` payloads, one formatter per analysis.

Each formatter takes :mod:`repro.core` result objects.  :data:`PAYLOADS`
feeds them from the vectorized kernels over a log (the cold path); the
store's materialized views (:mod:`repro.store.views`) feed them result
objects built from incremental tallies by the same constructors.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.breakdown import CategoryBreakdown, category_breakdown
from repro.core.metrics import downtime_hours, fleet_availability, mtbf, mttr
from repro.core.multigpu import (
    MultiGpuInvolvement,
    multi_gpu_clustering_ratio,
    multi_gpu_involvement,
)
from repro.core.records import FailureLog
from repro.core.seasonal import (
    MonthlyFailureCounts,
    monthly_failure_counts,
    monthly_ttr,
)
from repro.core.spatial import (
    NodeFailureDistribution,
    node_failure_distribution,
)
from repro.errors import AnalysisError
from repro.machines.specs import get_machine

__all__ = [
    "PAYLOADS", "format_breakdown", "format_metrics", "format_multigpu",
    "format_seasonal", "format_spatial",
]


def format_breakdown(breakdown: CategoryBreakdown) -> dict[str, Any]:
    """Category breakdown (the paper's Figure 2 / RQ1)."""
    return {
        "machine": breakdown.machine,
        "failures": breakdown.total,
        "dominant_category": breakdown.dominant_category,
        "categories": [
            {"category": share.category, "count": share.count,
             "share": share.share, "class": share.failure_class.name}
            for share in breakdown.shares
        ],
    }


def format_metrics(
    machine: str, failures: int, span_hours: float, mtbf_hours: float,
    mttr_hours: float, downtime_node_hours: float,
) -> dict[str, Any]:
    """Headline MTBF/MTTR/availability metrics.

    Raises:
        AnalysisError: With fewer than two failures (no TBF exists).
    """
    if failures < 2:
        raise AnalysisError(
            f"TBF needs at least 2 failures, log has {failures}"
        )
    num_nodes = get_machine(machine).num_nodes
    return {
        "machine": machine,
        "failures": failures,
        "span_hours": span_hours,
        "mtbf_hours": mtbf_hours,
        "mtbf_span_hours": span_hours / failures,
        "mttr_hours": mttr_hours,
        "availability": fleet_availability(
            downtime_node_hours, num_nodes, span_hours
        ),
        "num_nodes": num_nodes,
    }


def format_spatial(distribution: NodeFailureDistribution) -> dict[str, Any]:
    """Per-node failure concentration (Figure 4 / RQ2)."""
    return {
        "machine": distribution.machine,
        "affected_nodes": distribution.num_affected_nodes,
        "total_failures": distribution.total_failures,
        "top_nodes": [list(pair) for pair in distribution.top_nodes(10)],
        "cdf": [list(point) for point in distribution.cdf_points()],
    }


def format_seasonal(
    counts: MonthlyFailureCounts, ttr_means: list[float]
) -> dict[str, Any]:
    """Monthly failure counts and TTR means, months 1..12 with nan for
    an empty month (Figures 11-12)."""
    return {
        "machine": counts.machine,
        "monthly_failures": counts.series(),
        "peak_month": counts.peak_month(),
        "monthly_ttr_means_hours": ttr_means,
    }


def format_multigpu(
    involvement: MultiGpuInvolvement, clustering_ratio: float
) -> dict[str, Any]:
    """Multi-GPU involvement and clustering (Table III / Figure 8).

    Raises:
        AnalysisError: If no failure has recorded GPU involvement.
    """
    if involvement.total == 0:
        raise AnalysisError(
            "log has no GPU failures with recorded involvement"
        )
    return {
        "machine": involvement.machine,
        "multi_gpu_share": involvement.multi_gpu_share,
        "involvement": [
            {"gpus": gpus, "count": count, "share": share}
            for gpus, count, share in involvement.rows()
        ],
        "clustering_ratio": clustering_ratio,
        "is_clustered": bool(clustering_ratio > 1.0),
    }


def _metrics(log: FailureLog) -> dict[str, Any]:
    return format_metrics(
        log.machine, len(log), log.span_hours, mtbf(log), mttr(log),
        downtime_hours(log),
    )


def _multigpu(log: FailureLog) -> dict[str, Any]:
    max_gpus = get_machine(log.machine).gpus_per_node
    return format_multigpu(
        multi_gpu_involvement(log, max_gpus),
        multi_gpu_clustering_ratio(log),
    )


#: The cold path: each analysis's kernels over a log, formatted.
PAYLOADS: dict[str, Callable[[FailureLog], dict[str, Any]]] = {
    "breakdown": lambda log: format_breakdown(category_breakdown(log)),
    "metrics": _metrics,
    "spatial": lambda log: format_spatial(node_failure_distribution(log)),
    "seasonal": lambda log: format_seasonal(
        monthly_failure_counts(log), monthly_ttr(log).means()
    ),
    "multigpu": _multigpu,
}
