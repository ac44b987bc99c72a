"""RQ1 — failure-category breakdown (Figures 2 and 3).

Answers "what is the distribution of most frequently occurring failure
types?" by computing per-category counts and shares (Figure 2), the
hardware/software split, and — for Tsubame-3 — the breakdown of the
``Software`` category into root loci (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import taxonomy
from repro.core.columns import ColumnarView
from repro.core.records import FailureLog
from repro.core.taxonomy import FailureClass
from repro.errors import AnalysisError

__all__ = [
    "CategoryShare",
    "CategoryBreakdown",
    "category_counts",
    "category_breakdown",
    "RootLocusBreakdown",
    "software_root_loci",
]


@dataclass(frozen=True)
class CategoryShare:
    """One bar of Figure 2: a category's count and share of failures."""

    category: str
    count: int
    share: float
    failure_class: FailureClass


@dataclass(frozen=True)
class CategoryBreakdown:
    """Full per-category breakdown of a log (Figure 2)."""

    machine: str
    total: int
    shares: tuple[CategoryShare, ...]

    @classmethod
    def from_counts(
        cls, machine: str, counts: dict[str, int]
    ) -> "CategoryBreakdown":
        """Figure 2 from category name -> failure count.

        Raises:
            AnalysisError: If no category has a failure.
            TaxonomyError: On a category outside the machine taxonomy.
        """
        total = sum(counts.values())
        if total == 0:
            raise AnalysisError(
                "category breakdown of an empty log is undefined"
            )
        shares = _ranked_shares(
            counts, total, lambda name: taxonomy.failure_class(machine, name)
        )
        return cls(machine=machine, total=total, shares=shares)

    def share_of(self, category: str) -> float:
        """Return the share of one category (0.0 if absent)."""
        for entry in self.shares:
            if entry.category == category:
                return entry.share
        return 0.0

    def count_of(self, category: str) -> int:
        """Return the count of one category (0 if absent)."""
        for entry in self.shares:
            if entry.category == category:
                return entry.count
        return 0

    def top(self, k: int = 5) -> tuple[CategoryShare, ...]:
        """Return the k most frequent categories."""
        return self.shares[:k]

    def class_share(self, failure_class: FailureClass) -> float:
        """Aggregate share of one hardware/software/unknown class."""
        return sum(
            entry.share
            for entry in self.shares
            if entry.failure_class is failure_class
        )

    @property
    def dominant_category(self) -> str:
        """Most frequent category (the paper's headline per machine)."""
        return self.shares[0].category


def category_counts(cols: ColumnarView) -> dict[str, int]:
    """Category name -> failure count, over categories with any."""
    return _named_counts(
        cols.category_names,
        np.bincount(cols.category_codes, minlength=len(cols.category_names)),
    )


def category_breakdown(log: FailureLog) -> CategoryBreakdown:
    """Compute the Figure 2 breakdown of ``log``.

    Raises:
        AnalysisError: If the log is empty.
    """
    return CategoryBreakdown.from_counts(
        log.machine, category_counts(log.columns)
    )


@dataclass(frozen=True)
class RootLocusBreakdown:
    """Figure 3: shares of root loci within Tsubame-3 software failures."""

    total_software: int
    shares: tuple[CategoryShare, ...]

    def share_of(self, locus: str) -> float:
        """Return the share of one root locus (0.0 if absent)."""
        for entry in self.shares:
            if entry.category == locus:
                return entry.share
        return 0.0

    def top(self, k: int = 16) -> tuple[CategoryShare, ...]:
        """Return the top-k loci — Figure 3 shows the top 16."""
        return self.shares[:k]


def software_root_loci(
    log: FailureLog, software_category: str = "Software"
) -> RootLocusBreakdown:
    """Compute the Figure 3 root-locus breakdown of software failures.

    Records in the software category without a recorded locus are
    grouped under ``"unknown"`` — the paper highlights that ~20% of
    software failures have no known cause.

    Raises:
        AnalysisError: If the log has no software failures.
    """
    cols = log.columns
    loci = cols.locus_codes[
        cols.category_codes == cols.code_of(software_category)
    ]
    if loci.size == 0:
        raise AnalysisError(
            f"log has no {software_category!r} failures to break down"
        )
    # Shift codes by one so "no locus" (-1) counts in bin 0.
    counts = _named_counts(
        ("unknown", *cols.locus_names),
        np.bincount(loci + 1, minlength=len(cols.locus_names) + 1),
    )
    total = int(loci.size)
    return RootLocusBreakdown(
        total_software=total,
        shares=_ranked_shares(
            counts, total, lambda locus: FailureClass.SOFTWARE
        ),
    )


def _ranked_shares(counts, total, class_of) -> tuple[CategoryShare, ...]:
    """Shares by descending count, ties broken by name so the output
    is deterministic."""
    return tuple(
        CategoryShare(
            category=name,
            count=count,
            share=count / total,
            failure_class=class_of(name),
        )
        for name, count in sorted(
            counts.items(), key=lambda item: (-item[1], item[0])
        )
    )


def _named_counts(names, counts: np.ndarray) -> dict[str, int]:
    """Non-zero bin counts keyed by name; bins sharing a name add up."""
    named: dict[str, int] = {}
    for name, count in zip(names, counts.tolist()):
        if count:
            named[name] = named.get(name, 0) + count
    return named
