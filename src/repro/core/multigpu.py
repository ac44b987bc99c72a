"""RQ3 — simultaneous multi-GPU failures (Table III and Figure 8).

Can multiple GPUs within one node fail simultaneously?  Table III
tabulates, over the GPU failures with recorded involvement, how many
GPUs each failure touched.  Figure 8 shows that multi-GPU failures
cluster in time: one is likely to be followed by another soon after.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.columns import ColumnarView
from repro.core.records import FailureLog
from repro.errors import AnalysisError

__all__ = [
    "MultiGpuInvolvement",
    "gpu_involvement_counts",
    "multi_gpu_involvement",
    "MultiGpuClustering",
    "clustering_ratio",
    "multi_gpu_clustering",
    "multi_gpu_clustering_ratio",
]


@dataclass(frozen=True)
class MultiGpuInvolvement:
    """Table III: #GPUs involved per failure, with counts and shares."""

    machine: str
    max_gpus: int
    counts: dict[int, int]

    @classmethod
    def from_counts(
        cls, machine: str, max_gpus: int, counts: dict[int, int]
    ) -> "MultiGpuInvolvement":
        """Table III from #GPUs -> record counts.

        Raises:
            AnalysisError: On an invalid ``max_gpus`` or more GPUs
                than the node has.
        """
        if max_gpus < 1:
            raise AnalysisError(f"max_gpus must be >= 1, got {max_gpus}")
        if counts and max(counts) > max_gpus:
            raise AnalysisError(
                f"a record involves {max(counts)} GPUs but the node "
                f"only has {max_gpus}"
            )
        return cls(machine=machine, max_gpus=max_gpus, counts=dict(counts))

    @property
    def total(self) -> int:
        """GPU failures with recorded involvement (368 on Tsubame-2,
        81 on Tsubame-3 in the paper)."""
        return sum(self.counts.values())

    def share_of(self, num_gpus: int) -> float:
        """Share of failures involving exactly ``num_gpus`` GPUs."""
        if self.total == 0:
            return 0.0
        return self.counts.get(num_gpus, 0) / self.total

    @property
    def multi_gpu_share(self) -> float:
        """Share of failures involving more than one GPU.

        ~70% on Tsubame-2 versus <8% on Tsubame-3 in the paper.
        """
        if self.total == 0:
            return 0.0
        multi = sum(
            count for num, count in self.counts.items() if num > 1
        )
        return multi / self.total

    def rows(self) -> list[tuple[int, int, float]]:
        """Return (num_gpus, count, share) rows for 1..max_gpus."""
        return [
            (num, self.counts.get(num, 0), self.share_of(num))
            for num in range(1, self.max_gpus + 1)
        ]


def gpu_involvement_counts(cols: ColumnarView) -> dict[int, int]:
    """#GPUs involved -> number of records, over records with any."""
    involved = cols.gpu_counts[cols.gpu_counts > 0]
    nums, tallies = np.unique(involved, return_counts=True)
    return dict(zip(nums.tolist(), tallies.tolist()))


def multi_gpu_involvement(
    log: FailureLog, max_gpus: int
) -> MultiGpuInvolvement:
    """Compute Table III over a log's GPU failures.

    Only records with recorded GPU involvement count; involvement
    beyond the node's GPU count is rejected.

    Raises:
        AnalysisError: On an invalid ``max_gpus`` or out-of-range
            involvement (naming the first offending record).
    """
    cols = log.columns
    over = cols.gpu_counts > max_gpus
    if max_gpus >= 1 and over.any():
        first = int(np.argmax(over))
        raise AnalysisError(
            f"record {int(cols.record_ids[first])} involves "
            f"{int(cols.gpu_counts[first])} GPUs but the node only has "
            f"{max_gpus}"
        )
    return MultiGpuInvolvement.from_counts(
        log.machine, max_gpus, gpu_involvement_counts(cols)
    )


@dataclass(frozen=True)
class MultiGpuClustering:
    """Figure 8: temporal clustering of multi-GPU failures.

    Compares the gaps that *follow a multi-GPU failure* against the
    gaps that follow a single-GPU failure.  If multi-GPU failures
    cluster, the gap from a multi-GPU failure to the next multi-GPU
    failure is shorter than an independent-arrivals model predicts.

    Attributes:
        machine: Machine name.
        events: (hours-since-start, num_gpus_involved) for every GPU
            failure with recorded involvement, in time order — the raw
            scatter Figure 8 plots.
        gaps_after_multi: Hours from each multi-GPU failure to the next
            multi-GPU failure.
        gaps_after_single: Hours from each single-GPU failure to the
            next multi-GPU failure.
    """

    machine: str
    events: tuple[tuple[float, int], ...]
    gaps_after_multi: tuple[float, ...]
    gaps_after_single: tuple[float, ...]

    @property
    def mean_gap_after_multi(self) -> float:
        """Mean hours to the next multi-GPU failure, given one just
        happened (nan when no such gaps exist)."""
        return _mean_gap(self.gaps_after_multi)

    @property
    def mean_gap_after_single(self) -> float:
        """Mean hours to the next multi-GPU failure after a single-GPU
        failure (nan when no such gaps exist)."""
        return _mean_gap(self.gaps_after_single)

    @property
    def clustering_ratio(self) -> float:
        """See :func:`clustering_ratio`."""
        return clustering_ratio(
            self.mean_gap_after_single, self.mean_gap_after_multi
        )

    def is_clustered(self) -> bool:
        """True when the clustering ratio exceeds 1 (inf included)."""
        return bool(self.clustering_ratio > 1.0)


def clustering_ratio(
    mean_gap_after_single: float, mean_gap_after_multi: float
) -> float:
    """mean(gap after single) / mean(gap after multi), each mean nan
    over no gaps.

    Values above 1 mean multi-GPU failures beget multi-GPU failures
    sooner than single-GPU failures do — the Figure 8 claim.  When
    *no* single-GPU failure precedes a later multi-GPU one, clustering
    is maximal and the ratio is +inf; without a positive mean gap
    after multi-GPU failures it is nan.
    """
    if not np.isfinite(mean_gap_after_multi) or mean_gap_after_multi <= 0:
        return float("nan")
    if np.isnan(mean_gap_after_single):
        return float("inf")
    return mean_gap_after_single / mean_gap_after_multi


def _mean_gap(gaps) -> float:
    """``np.mean`` of the gaps, nan over none."""
    if not len(gaps):
        return float("nan")
    return float(np.mean(gaps))


def _clustering_arrays(
    log: FailureLog,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Figure 8's arrays: the GPU failures' times and GPU counts, then
    the gaps after multi-GPU and after single-GPU failures.

    Raises:
        AnalysisError: If the log has no GPU failures with recorded
            involvement.
    """
    cols = log.columns
    keep = cols.gpu_counts > 0
    times = cols.ts_hours[keep]
    num_involved = cols.gpu_counts[keep].astype(np.int64)
    if times.size == 0:
        raise AnalysisError(
            "log has no GPU failures with recorded involvement"
        )
    # Index of the first multi-GPU event strictly after each event:
    # searchsorted over the multi positions replaces the quadratic
    # forward scan of the reference implementation.
    multi_positions = np.nonzero(num_involved > 1)[0]
    following = np.searchsorted(
        multi_positions, np.arange(times.size), side="right"
    )
    has_next = following < multi_positions.size
    gaps = (
        times[multi_positions[following[has_next]]] - times[has_next]
    )
    was_multi = (num_involved > 1)[has_next]
    return times, num_involved, gaps[was_multi], gaps[~was_multi]


def multi_gpu_clustering(log: FailureLog) -> MultiGpuClustering:
    """Compute the Figure 8 temporal-clustering view of GPU failures.

    Raises:
        AnalysisError: If the log has no GPU failures with recorded
            involvement.
    """
    times, num_involved, after_multi, after_single = (
        _clustering_arrays(log)
    )
    return MultiGpuClustering(
        machine=log.machine,
        events=tuple(zip(times.tolist(), num_involved.tolist())),
        gaps_after_multi=tuple(after_multi.tolist()),
        gaps_after_single=tuple(after_single.tolist()),
    )


def multi_gpu_clustering_ratio(log: FailureLog) -> float:
    """``multi_gpu_clustering(log).clustering_ratio``, from the arrays
    alone: no event tuples are built.

    Raises:
        AnalysisError: If the log has no GPU failures with recorded
            involvement.
    """
    _, _, after_multi, after_single = _clustering_arrays(log)
    return clustering_ratio(_mean_gap(after_single), _mean_gap(after_multi))
