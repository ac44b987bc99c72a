"""Failure-log data model.

A :class:`FailureRecord` is one line of a Tsubame-style failure log: the
time a failure occurred, the node it occurred on, its category, the time
it took to recover from it, and — for GPU-incident failures — which GPU
slots were involved.  A :class:`FailureLog` is a chronologically sorted,
validated collection of records for one machine, together with the
observation window.

The schema deliberately matches the fields the paper's analyses consume
(Section II, "Dataset"): occurrence time, recovery time, category, and
enough locality to answer RQ2/RQ3 (node id and GPU slots).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core import taxonomy
from repro.core.taxonomy import FailureClass
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.columns import ColumnarView

__all__ = [
    "FailureRecord",
    "FailureLog",
    "HOURS_PER_DAY",
    "records_from_view",
]

HOURS_PER_DAY = 24.0


@dataclass(frozen=True, slots=True)
class FailureRecord:
    """One failure event.

    Attributes:
        record_id: Stable integer id, unique within a log.
        timestamp: Wall-clock time of the failure occurrence.
        node_id: Index of the compute node the failure occurred on.
        category: Failure category name (must exist in the machine's
            taxonomy, see :mod:`repro.core.taxonomy`).
        ttr_hours: Time to recovery in hours — the elapsed time until
            the component returned to normal operational status.
        gpus_involved: Sorted tuple of GPU slot indices involved in the
            failure.  Empty for non-GPU failures and for GPU failures
            whose involvement was not recorded (the paper's Table III
            covers 368 of 398 GPU failures on Tsubame-2).
        root_locus: Root locus of a Tsubame-3 ``Software`` failure
            (Figure 3), or None for every other category.
    """

    record_id: int
    timestamp: datetime
    node_id: int
    category: str
    ttr_hours: float
    gpus_involved: tuple[int, ...] = ()
    root_locus: str | None = None

    def __post_init__(self) -> None:
        if self.record_id < 0:
            raise ValidationError(
                f"record_id must be non-negative, got {self.record_id}"
            )
        if self.node_id < 0:
            raise ValidationError(
                f"node_id must be non-negative, got {self.node_id}"
            )
        if not self.category:
            raise ValidationError("category must be a non-empty string")
        if not (self.ttr_hours >= 0.0):  # also rejects NaN
            raise ValidationError(
                f"ttr_hours must be a non-negative number, "
                f"got {self.ttr_hours!r}"
            )
        if any(slot < 0 for slot in self.gpus_involved):
            raise ValidationError(
                f"GPU slot indices must be non-negative, "
                f"got {self.gpus_involved}"
            )
        if len(set(self.gpus_involved)) != len(self.gpus_involved):
            raise ValidationError(
                f"GPU slot indices must be unique, got {self.gpus_involved}"
            )
        if tuple(sorted(self.gpus_involved)) != self.gpus_involved:
            # Normalise rather than reject: slot order carries no meaning.
            object.__setattr__(
                self, "gpus_involved", tuple(sorted(self.gpus_involved))
            )

    @property
    def num_gpus_involved(self) -> int:
        """Number of GPU slots recorded as involved (0 when unrecorded)."""
        return len(self.gpus_involved)

    @property
    def recovered_at(self) -> datetime:
        """Time the failure was fully repaired."""
        return self.timestamp + timedelta(hours=self.ttr_hours)

    def with_ttr(self, ttr_hours: float) -> "FailureRecord":
        """Return a copy of this record with a different recovery time."""
        return replace(self, ttr_hours=ttr_hours)


@dataclass(frozen=True)
class FailureLog:
    """A validated, chronologically sorted failure log for one machine.

    Attributes:
        machine: Machine name (``"tsubame2"`` or ``"tsubame3"``).
        records: Records sorted by timestamp (ties broken by record id).
        window_start: Start of the observation window.
        window_end: End of the observation window.
    """

    machine: str
    records: tuple[FailureRecord, ...]
    window_start: datetime
    window_end: datetime
    _strict_taxonomy: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        if self.window_end <= self.window_start:
            raise ValidationError(
                f"window_end ({self.window_end}) must be after "
                f"window_start ({self.window_start})"
            )
        ordered = tuple(
            sorted(self.records, key=lambda r: (r.timestamp, r.record_id))
        )
        object.__setattr__(self, "records", ordered)
        seen_ids: set[int] = set()
        valid_names: set[str] | None = None
        if self._strict_taxonomy:
            valid_names = {
                cat.name for cat in taxonomy.categories_for(self.machine)
            }
        for record in ordered:
            if record.record_id in seen_ids:
                raise ValidationError(
                    f"duplicate record_id {record.record_id}"
                )
            seen_ids.add(record.record_id)
            if not (self.window_start
                    <= record.timestamp
                    <= self.window_end):
                raise ValidationError(
                    f"record {record.record_id} at {record.timestamp} lies "
                    f"outside the observation window "
                    f"[{self.window_start}, {self.window_end}]"
                )
            if valid_names is not None and record.category not in valid_names:
                raise ValidationError(
                    f"record {record.record_id} has category "
                    f"{record.category!r}, which is not in the "
                    f"{self.machine} taxonomy"
                )

    # -- trusted fast path -------------------------------------------------
    #
    # Every record in a log has already passed the full __post_init__
    # validation (ids unique, timestamps in window, categories in
    # taxonomy) and is stored sorted.  Any order-preserving subset of
    # such records therefore needs neither re-validation nor re-sorting;
    # _from_trusted builds the sub-log directly, bypassing __init__.
    # _from_columns goes one step further for builders that validated
    # column-wise (the CSV reader, the store): the log holds only its
    # ColumnarView, and ``records`` is built from it on first access.
    # These are the invariants documented in docs/PERFORMANCE.md —
    # never route data from outside a validated source through them.

    @classmethod
    def _from_trusted(
        cls,
        machine: str,
        records: tuple[FailureRecord, ...] | None,
        window_start: datetime,
        window_end: datetime,
        strict_taxonomy: bool,
        columns: "ColumnarView | None" = None,
    ) -> "FailureLog":
        log = object.__new__(cls)
        state = log.__dict__
        state["machine"] = machine
        if records is not None:
            state["records"] = records
        state["window_start"] = window_start
        state["window_end"] = window_end
        state["_strict_taxonomy"] = strict_taxonomy
        if columns is not None:
            state["_derived_cache"] = {"columns": columns}
        return log

    @classmethod
    def _from_columns(
        cls,
        machine: str,
        window_start: datetime,
        window_end: datetime,
        view: "ColumnarView",
        strict_taxonomy: bool = True,
    ) -> "FailureLog":
        """A log over a view whose arrays passed every record- and
        log-level check, sorted; records are built on first access."""
        return cls._from_trusted(
            machine, None, window_start, window_end, strict_taxonomy,
            columns=view,
        )

    def __getattr__(self, name: str) -> Any:
        # Only reached when normal lookup fails: ``records`` of a lazy
        # log (see _from_columns) is built from its view, once.
        view = self.__dict__.get("_derived_cache", {}).get("columns")
        if name != "records" or view is None:
            raise AttributeError(name)
        records = records_from_view(view)
        self.__dict__["records"] = records
        return records

    @property
    def _lazy(self) -> bool:
        """True while ``records`` has not been built from the view."""
        return "records" not in self.__dict__

    def __getstate__(self) -> dict[str, Any]:
        # Derived caches hold NumPy arrays that are cheap to rebuild
        # but expensive to ship to worker processes; drop them — except
        # a lazy log's view, which is the only copy of its data.
        state = {
            k: v for k, v in self.__dict__.items() if k != "_derived_cache"
        }
        if self._lazy:
            state["_derived_cache"] = {"columns": self.columns}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)

    @property
    def columns(self) -> "ColumnarView":
        """The log's columnar NumPy view, built once and cached.

        Filtered sub-logs receive their parent's arrays sliced by mask
        rather than rebuilding from records.
        """
        cache = self.__dict__.setdefault("_derived_cache", {})
        if "columns" not in cache:
            from repro.core.columns import build_columns

            cache["columns"] = build_columns(self)
        return cache["columns"]

    # -- basic container protocol ----------------------------------------

    def __len__(self) -> int:
        if self._lazy:
            return len(self.columns)
        return len(self.records)

    def __iter__(self) -> Iterator[FailureRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> FailureRecord:
        return self.records[index]

    # -- derived quantities ----------------------------------------------

    @property
    def span_hours(self) -> float:
        """Length of the observation window in hours."""
        return (self.window_end - self.window_start).total_seconds() / 3600.0

    def hours_since_start(self, record: FailureRecord) -> float:
        """Offset of a record's timestamp from the window start, in hours."""
        delta = record.timestamp - self.window_start
        return delta.total_seconds() / 3600.0

    def timestamps_hours(self) -> list[float]:
        """All record offsets from the window start, in hours, sorted."""
        return self.columns.ts_hours.tolist()

    def categories(self) -> list[str]:
        """Category names present in the log, sorted by name."""
        cols = self.columns
        names = cols.category_names
        return [names[code] for code in np.unique(cols.category_codes)]

    def node_ids(self) -> list[int]:
        """Node ids present in the log, sorted."""
        return np.unique(self.columns.node_ids).tolist()

    # -- filtering and slicing ---------------------------------------------

    def _subset(self, keep: np.ndarray) -> "FailureLog":
        """Build the sub-log selected by a boolean mask, propagating
        the columnar view by slicing instead of recomputation (a lazy
        log gives a lazy sub-log)."""
        from itertools import compress

        records = (
            None if self._lazy else tuple(compress(self.records, keep))
        )
        cache = self.__dict__.get("_derived_cache") or {}
        source = cache.get("columns")
        return FailureLog._from_trusted(
            machine=self.machine,
            records=records,
            window_start=self.window_start,
            window_end=self.window_end,
            strict_taxonomy=self._strict_taxonomy,
            columns=source.mask(keep) if source is not None else None,
        )

    def filter(
        self, predicate: Callable[[FailureRecord], bool]
    ) -> "FailureLog":
        """Return a new log containing the records matching ``predicate``."""
        keep = np.fromiter(
            (bool(predicate(r)) for r in self.records),
            dtype=bool,
            count=len(self.records),
        )
        return self._subset(keep)

    def by_category(self, *names: str) -> "FailureLog":
        """Return the sub-log of records in any of the given categories."""
        cols = self.columns
        return self._subset(
            np.isin(cols.category_codes, cols.codes_of(tuple(names)))
        )

    def by_class(self, failure_class: FailureClass) -> "FailureLog":
        """Return the sub-log of records whose category has this class."""
        cols = self.columns
        if not cols.taxonomy_complete:
            # Lenient log with ad-hoc categories: keep the record path
            # so the per-record TaxonomyError surfaces as before.
            return self.filter(
                lambda r: taxonomy.failure_class(self.machine, r.category)
                is failure_class
            )
        return self._subset(
            cols.class_codes == cols.class_code_of(failure_class)
        )

    def gpu_failures(self) -> "FailureLog":
        """Return the sub-log of GPU-incident failures.

        A record counts as GPU-incident when its category is GPU-related
        in the machine taxonomy (e.g. ``GPU`` on both machines, plus the
        SXM2 categories on Tsubame-3) or when it explicitly records
        involved GPU slots.
        """
        cols = self.columns
        if not cols.taxonomy_complete:
            return self.filter(
                lambda r: bool(r.gpus_involved)
                or taxonomy.is_gpu_category(self.machine, r.category)
            )
        return self._subset((cols.gpu_counts > 0) | cols.gpu_category)

    def by_node(self, node_id: int) -> "FailureLog":
        """Return the sub-log of records on one node."""
        return self._subset(self.columns.node_ids == node_id)

    def between(self, start: datetime, end: datetime) -> "FailureLog":
        """Return the sub-log of records with start <= timestamp < end."""
        if end <= start:
            raise ValidationError(
                f"between() requires start < end, got {start} .. {end}"
            )
        # Same hour-offset arithmetic as hours_since_start, so boundary
        # comparisons agree exactly with the datetime comparisons.
        ts = self.columns.ts_hours
        start_h = (start - self.window_start).total_seconds() / 3600.0
        end_h = (end - self.window_start).total_seconds() / 3600.0
        return self._subset((ts >= start_h) & (ts < end_h))

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_records(
        cls,
        machine: str,
        records: Sequence[FailureRecord],
        window_start: datetime | None = None,
        window_end: datetime | None = None,
        strict_taxonomy: bool = True,
    ) -> "FailureLog":
        """Build a log, inferring the window from the records if absent.

        When the window is inferred, it is padded by one hour on each
        side so that boundary records validate and TBF/TTR analyses see
        a non-degenerate window.

        Raises:
            ValidationError: If no records are given and no explicit
                window is provided.
        """
        if window_start is None or window_end is None:
            if not records:
                raise ValidationError(
                    "cannot infer an observation window from an empty "
                    "record list; pass window_start and window_end"
                )
            stamps = [r.timestamp for r in records]
            pad = timedelta(hours=1)
            window_start = window_start or min(stamps) - pad
            window_end = window_end or max(stamps) + pad
        return cls(
            machine=machine,
            records=tuple(records),
            window_start=window_start,
            window_end=window_end,
            _strict_taxonomy=strict_taxonomy,
        )


def records_from_view(view: "ColumnarView") -> tuple[FailureRecord, ...]:
    """Rebuild the records a view's identity columns describe.

    Records go through the validating constructor, so a view that does
    not describe valid records raises here rather than later.
    """
    from repro.core.columns import us_to_datetime

    names = view.category_names
    loci = (*view.locus_names, None)  # code -1 picks the trailing None
    bounds = view.slot_offsets.tolist()
    slots = view.slot_values.tolist()
    return tuple(
        FailureRecord(
            record_id,
            us_to_datetime(us),
            node_id,
            names[code],
            ttr,
            tuple(slots[bounds[index]:bounds[index + 1]]),
            loci[locus],
        )
        for index, (record_id, us, node_id, code, ttr, locus) in enumerate(
            zip(
                view.record_ids.tolist(),
                view.ts_us.tolist(),
                view.node_ids.tolist(),
                view.category_codes.tolist(),
                view.ttr_hours.tolist(),
                view.locus_codes.tolist(),
            )
        )
    )
