"""RQ2 — spatial distribution of failures (Figures 4 and 5).

Two questions: how are failures distributed *across nodes* (do a few
faulty nodes dominate?) and *within a node* across GPU slots (are some
slots unluckier than others?).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core import taxonomy
from repro.core.columns import CLASS_CODES, ColumnarView
from repro.core.records import FailureLog
from repro.core.taxonomy import FailureClass
from repro.errors import AnalysisError

__all__ = [
    "NodeFailureDistribution",
    "node_counts",
    "node_failure_distribution",
    "RepeatFailureClassSplit",
    "repeat_failure_class_split",
    "GpuSlotDistribution",
    "gpu_slot_distribution",
    "RackFailureDistribution",
    "rack_failure_distribution",
]


@dataclass(frozen=True)
class NodeFailureDistribution:
    """Figure 4: how many failures each affected node experienced.

    Attributes:
        machine: Machine name.
        counts_per_node: Mapping node id -> failure count (affected
            nodes only).
        histogram: Mapping k -> number of nodes with exactly k failures.
    """

    machine: str
    counts_per_node: dict[int, int]
    histogram: dict[int, int]

    @classmethod
    def from_counts(
        cls, machine: str, counts_per_node: dict[int, int]
    ) -> "NodeFailureDistribution":
        """Figure 4 from node id -> failure count (affected nodes only).

        Raises:
            AnalysisError: If no node has a failure.
        """
        if not counts_per_node:
            raise AnalysisError(
                "node failure distribution of an empty log is undefined"
            )
        histogram = Counter(counts_per_node.values())
        return cls(
            machine=machine,
            counts_per_node=dict(counts_per_node),
            histogram=dict(sorted(histogram.items())),
        )

    @property
    def num_affected_nodes(self) -> int:
        """Number of nodes with at least one failure."""
        return len(self.counts_per_node)

    @property
    def total_failures(self) -> int:
        """Total failures across affected nodes."""
        return sum(self.counts_per_node.values())

    def fraction_with_exactly(self, k: int) -> float:
        """Fraction of affected nodes with exactly k failures."""
        if self.num_affected_nodes == 0:
            return 0.0
        return self.histogram.get(k, 0) / self.num_affected_nodes

    def fraction_with_more_than(self, k: int) -> float:
        """Fraction of affected nodes with more than k failures."""
        if self.num_affected_nodes == 0:
            return 0.0
        count = sum(
            nodes for failures, nodes in self.histogram.items()
            if failures > k
        )
        return count / self.num_affected_nodes

    def cdf_points(self) -> list[tuple[int, float]]:
        """Return (k, fraction of nodes with <= k failures) pairs."""
        points = []
        running = 0
        for k in sorted(self.histogram):
            running += self.histogram[k]
            points.append((k, running / self.num_affected_nodes))
        return points

    def top_nodes(self, k: int = 10) -> list[tuple[int, int]]:
        """Return the k nodes with the most failures as (node, count)."""
        ranked = sorted(
            self.counts_per_node.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:k]


def node_counts(cols: ColumnarView) -> dict[int, int]:
    """Node id -> failure count, over the nodes with any failure."""
    nodes, per_node = np.unique(cols.node_ids, return_counts=True)
    return dict(zip(nodes.tolist(), per_node.tolist()))


def node_failure_distribution(log: FailureLog) -> NodeFailureDistribution:
    """Compute the Figure 4 per-node failure-count distribution.

    Raises:
        AnalysisError: If the log is empty.
    """
    return NodeFailureDistribution.from_counts(
        log.machine, node_counts(log.columns)
    )


@dataclass(frozen=True)
class RepeatFailureClassSplit:
    """Hardware/software split of failures on multi-failure nodes.

    The paper reports: "considering nodes with more than 1 failure, on
    Tsubame-2, we observed 352 hardware failures and 1 software
    failure, and on Tsubame-3, we observed 104 hardware and 95 software
    failures" — both classes recur on the same node.
    """

    machine: str
    num_multi_failure_nodes: int
    hardware_failures: int
    software_failures: int
    unknown_failures: int

    @property
    def total(self) -> int:
        """All failures on multi-failure nodes."""
        return (
            self.hardware_failures
            + self.software_failures
            + self.unknown_failures
        )


def repeat_failure_class_split(log: FailureLog) -> RepeatFailureClassSplit:
    """Split failures on multi-failure nodes by hardware/software class.

    Raises:
        AnalysisError: If the log is empty.
        TaxonomyError: If a record on a multi-failure node has an
            ad-hoc category (naming the first such record's category).
    """
    cols = log.columns
    if len(log) == 0:
        raise AnalysisError(
            "node failure distribution of an empty log is undefined"
        )
    nodes, per_node = np.unique(cols.node_ids, return_counts=True)
    multi = nodes[per_node > 1]
    on_multi = np.isin(cols.node_ids, multi)
    if not cols.taxonomy_complete:
        # Resolve the categories on multi-failure nodes in order of
        # first appearance: the first ad-hoc one raises the
        # TaxonomyError a per-record scan would meet first.
        codes = cols.category_codes[on_multi]
        _, first = np.unique(codes, return_index=True)
        for code in codes[np.sort(first)].tolist():
            taxonomy.failure_class(log.machine, cols.category_names[code])
    tallies = np.bincount(
        cols.class_codes[on_multi], minlength=len(CLASS_CODES)
    )
    return RepeatFailureClassSplit(
        machine=log.machine,
        num_multi_failure_nodes=int(multi.size),
        hardware_failures=int(tallies[CLASS_CODES[FailureClass.HARDWARE]]),
        software_failures=int(tallies[CLASS_CODES[FailureClass.SOFTWARE]]),
        unknown_failures=int(tallies[CLASS_CODES[FailureClass.UNKNOWN]]),
    )


@dataclass(frozen=True)
class GpuSlotDistribution:
    """Figure 5: failure counts per GPU slot within a node.

    Counts weigh each failure by the GPU slots it involved, so a
    simultaneous two-GPU failure contributes to two slots.
    """

    machine: str
    counts: dict[int, int]

    @property
    def total(self) -> int:
        """Total slot involvements."""
        return sum(self.counts.values())

    def share_of(self, slot: int) -> float:
        """Share of involvements landing on one slot."""
        if self.total == 0:
            return 0.0
        return self.counts.get(slot, 0) / self.total

    def relative_to_mean(self, slot: int) -> float:
        """A slot's count relative to the mean slot count (1.0 = even).

        The paper phrases Figure 5(a) this way: on Tsubame-2, "GPU 1
        has experienced ~20% more failures than GPU 0 and GPU 2".
        """
        if not self.counts:
            return 0.0
        mean = self.total / len(self.counts)
        if mean == 0.0:
            return 0.0
        return self.counts.get(slot, 0) / mean

    def imbalance(self) -> float:
        """Max/min slot-count ratio (1.0 means perfectly uniform)."""
        values = [v for v in self.counts.values() if v > 0]
        if not values:
            return 1.0
        low = min(self.counts.values())
        if low == 0:
            return float("inf")
        return max(values) / low


def gpu_slot_distribution(
    log: FailureLog, gpu_slots: tuple[int, ...]
) -> GpuSlotDistribution:
    """Compute the Figure 5 per-slot involvement counts.

    Args:
        log: Failure log (any records without recorded GPU involvement
            are ignored — the paper can only attribute failures whose
            slot is known).
        gpu_slots: All slot indices present on a node of this machine,
            so slots with zero failures still appear.

    Raises:
        AnalysisError: If ``gpu_slots`` is empty or a record involves a
            slot outside it.
    """
    if not gpu_slots:
        raise AnalysisError("gpu_slots must be non-empty")
    slots = log.columns.slot_values
    wanted = np.asarray(sorted(set(gpu_slots)), dtype=slots.dtype)
    outside = ~np.isin(slots, wanted)
    if outside.any():
        # Name the first offending slot and the record that holds it.
        cols = log.columns
        first = int(np.argmax(outside))
        record = np.searchsorted(cols.slot_offsets, first, "right") - 1
        raise AnalysisError(
            f"record {int(cols.record_ids[record])} involves GPU slot "
            f"{int(slots[first])}, which is not among the node's slots "
            f"{sorted(set(gpu_slots))}"
        )
    tallies = np.bincount(
        slots, minlength=int(wanted[-1]) + 1 if wanted.size else 0
    )
    counts = {slot: int(tallies[slot]) for slot in gpu_slots}
    return GpuSlotDistribution(machine=log.machine, counts=counts)


@dataclass(frozen=True)
class RackFailureDistribution:
    """Rack-level failure counts.

    The paper's generalizability discussion: failures distribute
    non-uniformly across racks too, which matters for power/cooling
    domains and maintenance routing.
    """

    machine: str
    counts: dict[int, int]
    num_racks: int

    @property
    def total(self) -> int:
        """Total failures across racks."""
        return sum(self.counts.values())

    def count_for(self, rack_id: int) -> int:
        """Failure count of one rack (0 when unaffected)."""
        return self.counts.get(rack_id, 0)

    @property
    def affected_racks(self) -> int:
        """Racks with at least one failure."""
        return len(self.counts)

    def top_racks(self, k: int = 5) -> list[tuple[int, int]]:
        """The k racks with the most failures, as (rack, count)."""
        ranked = sorted(
            self.counts.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:k]

    def concentration(self, top_fraction: float = 0.1) -> float:
        """Share of failures on the top ``top_fraction`` of racks.

        Under a uniform spread this approaches ``top_fraction``; values
        well above it quantify rack-level skew.

        Raises:
            AnalysisError: If the fraction is outside (0, 1].
        """
        if not 0.0 < top_fraction <= 1.0:
            raise AnalysisError(
                f"top_fraction must be in (0, 1], got {top_fraction}"
            )
        if self.total == 0:
            return 0.0
        k = max(1, int(round(top_fraction * self.num_racks)))
        top = sum(count for _, count in self.top_racks(k))
        return top / self.total

    def gini(self) -> float:
        """Gini coefficient of per-rack failure counts (0 = uniform).

        Computed over all racks including zero-failure ones, so empty
        racks raise the coefficient — as they should for a skew
        measure.
        """
        if self.total == 0:
            return 0.0
        values = sorted(
            self.counts.get(rack, 0) for rack in range(self.num_racks)
        )
        n = len(values)
        cumulative = 0.0
        for index, value in enumerate(values, start=1):
            cumulative += index * value
        return (2.0 * cumulative) / (n * self.total) - (n + 1.0) / n


def rack_failure_distribution(log, layout) -> RackFailureDistribution:
    """Aggregate a log's failures per rack.

    Args:
        log: Failure log.
        layout: A :class:`repro.machines.racks.RackLayout` for the
            log's machine.

    Raises:
        AnalysisError: If the log is empty or machines mismatch.
    """
    if len(log) == 0:
        raise AnalysisError(
            "rack failure distribution of an empty log is undefined"
        )
    if layout.machine != log.machine:
        raise AnalysisError(
            f"layout is for {layout.machine!r} but log is for "
            f"{log.machine!r}"
        )
    # One rack lookup per affected node instead of one per record.
    counts: dict[int, int] = {}
    for node, count in node_counts(log.columns).items():
        rack = layout.rack_of(node)
        counts[rack] = counts.get(rack, 0) + count
    return RackFailureDistribution(
        machine=log.machine,
        counts=dict(counts),
        num_racks=layout.num_racks,
    )
