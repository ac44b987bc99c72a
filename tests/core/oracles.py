"""Per-record analysis kernels, kept as oracles for the vectorized ones.

Each function here is the pure-Python loop a ``repro.core`` kernel ran
before it read the log's :class:`~repro.core.columns.ColumnarView`:
one pass over the :class:`~repro.core.records.FailureRecord` objects,
building the same result type, or, for the per-category kernels
(``tbf_by_category``, ``component_class_mtbf``, ``ttr_by_category``),
one filtered sub-log per category, the formulation the one-pass
grouped kernels replaced.  ``tests/core/test_columns_parity.py``
holds every vectorized kernel to its oracle within 1e-9, the error
tests hold the kernels' first-offender diagnoses to the exception type
and message an oracle raises, and ``benchmarks/perf_core.py`` times
the kernels against them.
"""

from __future__ import annotations

from collections import Counter

from repro.core import metrics, taxonomy
from repro.core.breakdown import (
    CategoryShare,
    RootLocusBreakdown,
)
from repro.core.multigpu import MultiGpuClustering, MultiGpuInvolvement
from repro.core.records import FailureLog, FailureRecord
from repro.core.seasonal import (
    HourOfDayProfile,
    MonthlyFailureCounts,
    MonthlyTtr,
    WeekdayProfile,
)
from repro.core.spatial import (
    GpuSlotDistribution,
    NodeFailureDistribution,
    RackFailureDistribution,
    RepeatFailureClassSplit,
)
from repro.core.taxonomy import FailureClass
from repro.core.recovery import CategoryTtr
from repro.core.temporal import CategoryTbf, ComponentClassMtbf
from repro.errors import AnalysisError
from repro.stats.summary import five_number_summary


# -- metrics -----------------------------------------------------------------

def tbf_series_hours(log: FailureLog) -> list[float]:
    """Time-between-failures series from the record timestamps."""
    if len(log) < 2:
        raise AnalysisError(
            f"TBF needs at least 2 failures, log has {len(log)}"
        )
    stamps = log.timestamps_hours()
    return [later - earlier for earlier, later in zip(stamps, stamps[1:])]


def ttr_series_hours(log: FailureLog) -> list[float]:
    """Per-record time to recovery."""
    return [record.ttr_hours for record in log]


# -- temporal ----------------------------------------------------------------

def tbf_by_category(
    log: FailureLog, min_failures: int = 3
) -> list[CategoryTbf]:
    """Figure 7 over one filtered sub-log per category."""
    if min_failures < 2:
        raise AnalysisError(
            f"min_failures must be >= 2 to define any TBF, "
            f"got {min_failures}"
        )
    results = []
    for name in log.categories():
        sub = log.by_category(name)
        if len(sub) < min_failures:
            continue
        results.append(
            CategoryTbf(
                category=name,
                summary=five_number_summary(tbf_series_hours(sub)),
            )
        )
    if not results:
        raise AnalysisError(
            f"no category has at least {min_failures} failures"
        )
    results.sort(key=lambda entry: entry.mean_hours)
    return results


def component_class_mtbf(
    log: FailureLog, gpu_category: str = "GPU", cpu_category: str = "CPU"
) -> ComponentClassMtbf:
    """GPU and CPU MTBF over one filtered sub-log per category."""
    gpu_log = log.by_category(gpu_category)
    cpu_log = log.by_category(cpu_category)
    if len(gpu_log) == 0:
        raise AnalysisError(f"log has no {gpu_category!r} failures")
    if len(cpu_log) == 0:
        raise AnalysisError(f"log has no {cpu_category!r} failures")
    return ComponentClassMtbf(
        machine=log.machine,
        gpu_mtbf_hours=metrics.mtbf_span(gpu_log),
        cpu_mtbf_hours=metrics.mtbf_span(cpu_log),
        gpu_failures=len(gpu_log),
        cpu_failures=len(cpu_log),
    )


# -- recovery ----------------------------------------------------------------

def ttr_by_category(
    log: FailureLog, min_failures: int = 2
) -> list[CategoryTtr]:
    """Figure 10 over one filtered sub-log per category."""
    if len(log) == 0:
        raise AnalysisError("TTR by category of an empty log is undefined")
    if min_failures < 1:
        raise AnalysisError(
            f"min_failures must be >= 1, got {min_failures}"
        )
    results = []
    for name in log.categories():
        sub = log.by_category(name)
        if len(sub) < min_failures:
            continue
        results.append(
            CategoryTtr(
                category=name,
                failure_class=taxonomy.failure_class(log.machine, name),
                summary=five_number_summary(ttr_series_hours(sub)),
                share_of_failures=len(sub) / len(log),
            )
        )
    if not results:
        raise AnalysisError(
            f"no category has at least {min_failures} failures"
        )
    results.sort(key=lambda entry: entry.mean_hours)
    return results


# -- breakdown ---------------------------------------------------------------

def software_root_loci(
    log: FailureLog, software_category: str = "Software"
) -> RootLocusBreakdown:
    """Figure 3 from the software records' loci."""
    loci = Counter(
        record.root_locus or "unknown"
        for record in log
        if record.category == software_category
    )
    total = sum(loci.values())
    if total == 0:
        raise AnalysisError(
            f"log has no {software_category!r} failures to break down"
        )
    return RootLocusBreakdown(
        total_software=total,
        shares=tuple(
            CategoryShare(
                category=name,
                count=count,
                share=count / total,
                failure_class=FailureClass.SOFTWARE,
            )
            for name, count in sorted(
                loci.items(), key=lambda item: (-item[1], item[0])
            )
        ),
    )


# -- spatial -----------------------------------------------------------------

def node_failure_distribution(log: FailureLog) -> NodeFailureDistribution:
    """Figure 4 from a per-record node tally."""
    if len(log) == 0:
        raise AnalysisError(
            "node failure distribution of an empty log is undefined"
        )
    counts = Counter(record.node_id for record in log)
    histogram = Counter(counts.values())
    return NodeFailureDistribution(
        machine=log.machine,
        counts_per_node=dict(counts),
        histogram=dict(histogram),
    )


def repeat_failure_class_split(log: FailureLog) -> RepeatFailureClassSplit:
    """Class split on multi-failure nodes, resolving each record's
    category in the taxonomy (ad-hoc categories raise TaxonomyError)."""
    distribution = node_failure_distribution(log)
    multi_nodes = {
        node for node, count in distribution.counts_per_node.items()
        if count > 1
    }
    tallies = {cls: 0 for cls in FailureClass}
    for record in log:
        if record.node_id not in multi_nodes:
            continue
        cls = taxonomy.failure_class(log.machine, record.category)
        tallies[cls] += 1
    return RepeatFailureClassSplit(
        machine=log.machine,
        num_multi_failure_nodes=len(multi_nodes),
        hardware_failures=tallies[FailureClass.HARDWARE],
        software_failures=tallies[FailureClass.SOFTWARE],
        unknown_failures=tallies[FailureClass.UNKNOWN],
    )


def gpu_slot_distribution(
    log: FailureLog, gpu_slots: tuple[int, ...]
) -> GpuSlotDistribution:
    """Figure 5 from each record's involved slots."""
    if not gpu_slots:
        raise AnalysisError("gpu_slots must be non-empty")
    valid = set(gpu_slots)
    counts = {slot: 0 for slot in gpu_slots}
    for record in log:
        for slot in record.gpus_involved:
            if slot not in valid:
                raise AnalysisError(
                    f"record {record.record_id} involves GPU slot {slot}, "
                    f"which is not among the node's slots {sorted(valid)}"
                )
            counts[slot] += 1
    return GpuSlotDistribution(machine=log.machine, counts=counts)


def rack_failure_distribution(log, layout) -> RackFailureDistribution:
    """Rack counts from one layout lookup per record."""
    if len(log) == 0:
        raise AnalysisError(
            "rack failure distribution of an empty log is undefined"
        )
    if layout.machine != log.machine:
        raise AnalysisError(
            f"layout is for {layout.machine!r} but log is for "
            f"{log.machine!r}"
        )
    counts = Counter(layout.rack_of(record.node_id) for record in log)
    return RackFailureDistribution(
        machine=log.machine,
        counts=dict(counts),
        num_racks=layout.num_racks,
    )


# -- seasonal ----------------------------------------------------------------

def monthly_ttr(log: FailureLog) -> MonthlyTtr:
    """Figure 11 from per-record timestamps and recovery times."""
    if len(log) == 0:
        raise AnalysisError("monthly TTR of an empty log is undefined")
    by_month: dict[int, list[float]] = {}
    for record in log:
        by_month.setdefault(record.timestamp.month, []).append(
            record.ttr_hours
        )
    summaries = {
        month: five_number_summary(values)
        for month, values in by_month.items()
    }
    return MonthlyTtr(machine=log.machine, summaries=summaries)


def monthly_failure_counts(log: FailureLog) -> MonthlyFailureCounts:
    """Figure 12 from per-record timestamps."""
    if len(log) == 0:
        raise AnalysisError(
            "monthly failure counts of an empty log are undefined"
        )
    counts: dict[int, int] = {}
    for record in log:
        month = record.timestamp.month
        counts[month] = counts.get(month, 0) + 1
    return MonthlyFailureCounts(machine=log.machine, counts=counts)


def weekday_profile(log: FailureLog) -> WeekdayProfile:
    """Failures per day of week from per-record timestamps."""
    if len(log) == 0:
        raise AnalysisError("weekday profile of an empty log is undefined")
    counts = [0] * 7
    for record in log:
        counts[record.timestamp.weekday()] += 1
    return WeekdayProfile(machine=log.machine, counts=tuple(counts))


def hour_of_day_profile(log: FailureLog) -> HourOfDayProfile:
    """Failures per hour of day from per-record timestamps."""
    if len(log) == 0:
        raise AnalysisError(
            "hour-of-day profile of an empty log is undefined"
        )
    counts = [0] * 24
    for record in log:
        counts[record.timestamp.hour] += 1
    return HourOfDayProfile(machine=log.machine, counts=tuple(counts))


# -- multi-GPU ---------------------------------------------------------------

def multi_gpu_involvement(
    log: FailureLog, max_gpus: int
) -> MultiGpuInvolvement:
    """Table III from each record's involvement, naming the first
    record that involves more GPUs than the node has."""
    if max_gpus < 1:
        raise AnalysisError(f"max_gpus must be >= 1, got {max_gpus}")
    counts: Counter[int] = Counter()
    for record in log:
        involved = record.num_gpus_involved
        if involved == 0:
            continue
        if involved > max_gpus:
            raise AnalysisError(
                f"record {record.record_id} involves {involved} GPUs but "
                f"the node only has {max_gpus}"
            )
        counts[involved] += 1
    return MultiGpuInvolvement(
        machine=log.machine, max_gpus=max_gpus, counts=dict(counts)
    )


def multi_gpu_clustering(log: FailureLog) -> MultiGpuClustering:
    """Figure 8 by a forward scan to the next multi-GPU failure."""
    involved: list[tuple[float, FailureRecord]] = [
        (log.hours_since_start(record), record)
        for record in log
        if record.num_gpus_involved > 0
    ]
    if not involved:
        raise AnalysisError(
            "log has no GPU failures with recorded involvement"
        )
    events = tuple(
        (time, record.num_gpus_involved) for time, record in involved
    )
    gaps_after_multi: list[float] = []
    gaps_after_single: list[float] = []
    for index, (time, record) in enumerate(involved):
        next_multi_time = None
        for later_time, later_record in involved[index + 1:]:
            if later_record.num_gpus_involved > 1:
                next_multi_time = later_time
                break
        if next_multi_time is None:
            continue
        gap = next_multi_time - time
        if record.num_gpus_involved > 1:
            gaps_after_multi.append(gap)
        else:
            gaps_after_single.append(gap)
    return MultiGpuClustering(
        machine=log.machine,
        events=events,
        gaps_after_multi=tuple(gaps_after_multi),
        gaps_after_single=tuple(gaps_after_single),
    )
