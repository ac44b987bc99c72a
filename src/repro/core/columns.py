"""Columnar NumPy backend for :class:`~repro.core.records.FailureLog`.

The record-oriented data model is the right API for building and
validating logs, but the analysis kernels (TBF, per-node counts,
monthly binning, involvement tables) are array computations.  A
:class:`ColumnarView` holds the log's fields as NumPy arrays so those
kernels can run vectorized, and — crucially — so that a *filtered*
sub-log can reuse its parent's arrays by boolean-mask slicing instead
of recomputing them from the records.

Layout
------

Per-record arrays, all of length ``len(log)`` and aligned with the
log's (already sorted) record order:

* ``ts_hours`` — offsets from the window start, in hours (float64).
* ``node_ids`` — node indices (int64).
* ``ttr_hours`` — recovery times (float64).
* ``category_codes`` — integer code per record into ``category_names``
  (int32).  The code table is shared by every view sliced from the
  same root, so codes stay comparable across filters.
* ``class_codes`` — hardware/software/unknown per record (int8, see
  ``CLASS_CODES``).
* ``gpu_counts`` — number of recorded GPU slots involved (int16).
* ``gpu_category`` — True when the record's category is GPU-related in
  the machine taxonomy (bool).
* ``months`` / ``weekdays`` / ``hours_of_day`` — calendar fields of
  the timestamp (int8).
* ``record_ids`` — record ids (int64).
* ``ts_us`` — timestamps as integer microseconds since 1970-01-01
  (int64; naive wall clock, or the UTC instant for tz-aware stamps).
* ``locus_codes`` — code per record into ``locus_names`` (int32), -1
  when the record has no root locus.

The identity columns (``record_ids``, ``ts_us``, ``locus_codes``)
carry what the analysis kernels do not read but
:func:`repro.core.records.records_from_view` needs to rebuild the
records exactly, so a log read column-wise can build its records only
on first touch.

GPU slot involvement is ragged, so it is stored CSR-style:
``slot_values`` concatenates every record's slots and
``slot_offsets[i]:slot_offsets[i + 1]`` delimits record ``i``'s span.

Invariant
---------

A view is always built from an already-validated log or from arrays
its builder validated against the same rules (the CSV reader, the
store), and :meth:`ColumnarView.mask` only ever narrows it, so
consumers may treat the arrays as trusted — no re-validation on
slice.  This is the same invariant :meth:`FailureLog._from_trusted`
and :meth:`FailureLog._from_columns` rely on; see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import taxonomy
from repro.core.taxonomy import FailureClass
from repro.errors import TaxonomyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.records import FailureLog

__all__ = [
    "ColumnarView",
    "build_columns",
    "columns_from_arrays",
    "datetimes_to_us",
    "group_rows",
    "us_to_datetime",
    "us_to_isoformat",
    "CLASS_CODES",
    "CLASS_BY_CODE",
]

#: FailureClass -> int8 code used in ``ColumnarView.class_codes``.
CLASS_CODES: dict[FailureClass, int] = {
    FailureClass.HARDWARE: 0,
    FailureClass.SOFTWARE: 1,
    FailureClass.UNKNOWN: 2,
}

#: Inverse of :data:`CLASS_CODES`, index position == code.
CLASS_BY_CODE: tuple[FailureClass, ...] = (
    FailureClass.HARDWARE,
    FailureClass.SOFTWARE,
    FailureClass.UNKNOWN,
)

_EPOCH = datetime(1970, 1, 1)
_EPOCH_UTC = _EPOCH.replace(tzinfo=timezone.utc)
_US = timedelta(microseconds=1)
_US_PER_DAY = 86_400_000_000
_US_PER_HOUR = 3_600_000_000


def datetimes_to_us(stamps: Sequence[datetime]) -> np.ndarray:
    """Convert naive datetimes to integer microseconds since the epoch.

    Integer ``timedelta`` division keeps the full microsecond
    precision of :class:`datetime`, so the round trip through
    :func:`us_to_datetime` is exact.
    """
    return np.fromiter(
        ((stamp - _EPOCH) // _US for stamp in stamps),
        dtype=np.int64,
        count=len(stamps),
    )


def us_to_datetime(us: int) -> datetime:
    """Inverse of :func:`datetimes_to_us` for one value."""
    return _EPOCH + timedelta(microseconds=int(us))


def us_to_isoformat(ts_us: np.ndarray) -> list[str]:
    """``us_to_datetime(us).isoformat()`` of every value, vectorised.

    Whole seconds drop the ``.000000`` fraction, as ``isoformat`` does.
    """
    text = np.datetime_as_string(ts_us.astype("datetime64[us]"), unit="us")
    return np.where(ts_us % 1_000_000 == 0, text.astype("U19"), text).tolist()


def group_rows(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by an integer code in ``[0, size)`` in one pass.

    Returns ``(order, bounds)``: ``order[bounds[c]:bounds[c + 1]]`` are
    the rows with code ``c``.  The sort is stable, so each group keeps
    row order — the rows, in the order, that the boolean mask
    ``codes == c`` selects.
    """
    # The narrowest type that holds every code: numpy's stable sort
    # radix-sorts 8- and 16-bit keys, ~6x faster than int32 ones.
    order = np.argsort(codes.astype(np.min_scalar_type(size)), kind="stable")
    bounds = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=size), out=bounds[1:])
    return order, bounds


@dataclass(frozen=True)
class ColumnarView:
    """Immutable columnar mirror of one (possibly filtered) log."""

    machine: str
    category_names: tuple[str, ...]
    #: True when every category resolved in the machine taxonomy.  When
    #: False (lenient logs with ad-hoc categories), class/GPU codes for
    #: the unresolved names default to UNKNOWN/non-GPU and
    #: taxonomy-dependent consumers must fall back to the record path
    #: to preserve its TaxonomyError behaviour.
    taxonomy_complete: bool
    ts_hours: np.ndarray
    node_ids: np.ndarray
    ttr_hours: np.ndarray
    category_codes: np.ndarray
    class_codes: np.ndarray
    gpu_counts: np.ndarray
    gpu_category: np.ndarray
    months: np.ndarray
    weekdays: np.ndarray
    hours_of_day: np.ndarray
    slot_values: np.ndarray
    slot_offsets: np.ndarray
    record_ids: np.ndarray
    ts_us: np.ndarray
    locus_names: tuple[str, ...]
    locus_codes: np.ndarray

    def __post_init__(self) -> None:
        # Views are shared between logs: freeze the arrays so no kernel
        # can mutate a sibling's data through them.
        for array in self.__dict__.values():
            if isinstance(array, np.ndarray):
                array.setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable: freeze them again.
        self.__dict__.update(state)
        self.__post_init__()

    def __len__(self) -> int:
        return int(self.ts_hours.shape[0])

    # -- code-table helpers ------------------------------------------------

    def code_of(self, category: str) -> int:
        """Code of a category name, or -1 when absent from the table.

        -1 never appears in ``category_codes``, so it is a safe
        no-match sentinel for mask building.
        """
        try:
            return self.category_names.index(category)
        except ValueError:
            return -1

    def codes_of(self, names: tuple[str, ...]) -> np.ndarray:
        """Codes of several category names (-1 for unknown names)."""
        return np.asarray(
            [self.code_of(name) for name in names], dtype=np.int32
        )

    def class_code_of(self, failure_class: FailureClass) -> int:
        """Integer code of a :class:`FailureClass`."""
        return CLASS_CODES[failure_class]

    # -- slicing -----------------------------------------------------------

    def mask(self, keep: np.ndarray) -> "ColumnarView":
        """Return the view of the records selected by a boolean mask.

        The category code table is shared, not rebuilt, so codes remain
        comparable between parent and child views.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.ts_hours.shape:
            raise ValueError(
                f"mask of shape {keep.shape} does not match "
                f"{self.ts_hours.shape} records"
            )
        lengths = np.diff(self.slot_offsets)[keep]
        offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        starts = self.slot_offsets[:-1][keep]
        total = int(offsets[-1]) if lengths.size else 0
        if total:
            # CSR gather: old start of each kept record, repeated over
            # its span, plus the position within the span.
            within = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offsets[:-1], lengths)
            )
            take = np.repeat(starts, lengths) + within
        else:
            take = np.empty(0, dtype=np.int64)
        return ColumnarView(
            machine=self.machine,
            category_names=self.category_names,
            taxonomy_complete=self.taxonomy_complete,
            ts_hours=self.ts_hours[keep],
            node_ids=self.node_ids[keep],
            ttr_hours=self.ttr_hours[keep],
            category_codes=self.category_codes[keep],
            class_codes=self.class_codes[keep],
            gpu_counts=self.gpu_counts[keep],
            gpu_category=self.gpu_category[keep],
            months=self.months[keep],
            weekdays=self.weekdays[keep],
            hours_of_day=self.hours_of_day[keep],
            slot_values=self.slot_values[take],
            slot_offsets=offsets,
            record_ids=self.record_ids[keep],
            ts_us=self.ts_us[keep],
            locus_names=self.locus_names,
            locus_codes=self.locus_codes[keep],
        )

    def slots_of(self, index: int) -> np.ndarray:
        """Slot indices involved in record ``index``."""
        return self.slot_values[
            self.slot_offsets[index]:self.slot_offsets[index + 1]
        ]


def _category_table(
    machine: str, names: list[str]
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, bool]:
    """Build the code table plus per-category class/GPU lookups.

    Categories outside the machine taxonomy (lenient logs) class as
    UNKNOWN and non-GPU; the returned flag reports whether all names
    resolved, so consumers can fall back to the record path when not.
    """
    unique = tuple(sorted(set(names)))
    class_by_code = np.empty(len(unique), dtype=np.int8)
    gpu_by_code = np.empty(len(unique), dtype=bool)
    complete = True
    for code, name in enumerate(unique):
        try:
            cat = taxonomy.category(machine, name)
            class_by_code[code] = CLASS_CODES[cat.failure_class]
            gpu_by_code[code] = cat.gpu_related
        except TaxonomyError:
            class_by_code[code] = CLASS_CODES[FailureClass.UNKNOWN]
            gpu_by_code[code] = False
            complete = False
    return unique, class_by_code, gpu_by_code, complete


def columns_from_arrays(
    machine: str,
    window_start_us: int,
    *,
    record_ids: np.ndarray,
    ts_us: np.ndarray,
    node_ids: np.ndarray,
    ttr_hours: np.ndarray,
    category_names: Sequence[str],
    category_codes: np.ndarray,
    locus_names: tuple[str, ...],
    locus_codes: np.ndarray,
    slot_values: np.ndarray,
    slot_offsets: np.ndarray,
    calendar: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> ColumnarView:
    """Assemble a view from validated, sorted per-record arrays.

    ``category_names`` must be sorted and unique.  The derived columns
    (hour offsets, class/GPU codes, GPU counts and, unless given as
    ``calendar=(months, weekdays, hours)``, the calendar fields) are
    computed from the identity columns.  Hour offsets use
    ``(Δus / 1e6) / 3600.0``, the float expression
    ``timedelta.total_seconds() / 3600.0`` evaluates, so every builder
    produces bit-identical ``ts_hours``.
    """
    table, class_by_code, gpu_by_code, complete = _category_table(
        machine, category_names
    )
    if calendar is None:
        days = ts_us // _US_PER_DAY
        calendar = (
            (
                ts_us.view("datetime64[us]").astype("datetime64[M]")
                .astype(np.int64) % 12 + 1
            ).astype(np.int8),
            ((days + 3) % 7).astype(np.int8),  # 1970-01-01 is a Thursday
            (ts_us // _US_PER_HOUR % 24).astype(np.int8),
        )
    months, weekdays, hours = calendar
    return ColumnarView(
        machine=machine,
        category_names=table,
        taxonomy_complete=complete,
        ts_hours=(ts_us - window_start_us) / 1e6 / 3600.0,
        node_ids=node_ids,
        ttr_hours=ttr_hours,
        category_codes=category_codes,
        class_codes=class_by_code[category_codes],
        gpu_counts=np.diff(slot_offsets).astype(np.int16),
        gpu_category=gpu_by_code[category_codes],
        months=months,
        weekdays=weekdays,
        hours_of_day=hours,
        slot_values=slot_values,
        slot_offsets=slot_offsets,
        record_ids=record_ids,
        ts_us=ts_us,
        locus_names=locus_names,
        locus_codes=locus_codes,
    )


def build_columns(log: "FailureLog") -> ColumnarView:
    """Build the columnar view of an already-validated log.

    One O(n) pass over the records; everything downstream (filters,
    kernels) works on the arrays.  Prefer :attr:`FailureLog.columns`,
    which caches the result on the log.
    """
    records = log.records
    n = len(records)
    unique = tuple(sorted({r.category for r in records}))
    code_of = {name: code for code, name in enumerate(unique)}
    locus_names = tuple(
        sorted({r.root_locus for r in records if r.root_locus})
    )
    locus_of = {name: code for code, name in enumerate(locus_names)}
    epoch = _EPOCH if log.window_start.tzinfo is None else _EPOCH_UTC

    ids = np.empty(n, dtype=np.int64)
    ts_us = np.empty(n, dtype=np.int64)
    nodes = np.empty(n, dtype=np.int64)
    ttrs = np.empty(n, dtype=np.float64)
    codes = np.empty(n, dtype=np.int32)
    loci = np.empty(n, dtype=np.int32)
    months = np.empty(n, dtype=np.int8)
    weekdays = np.empty(n, dtype=np.int8)
    hours = np.empty(n, dtype=np.int8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    flat_slots: list[int] = []
    for i, r in enumerate(records):
        ids[i] = r.record_id
        ts_us[i] = (r.timestamp - epoch) // _US
        nodes[i] = r.node_id
        ttrs[i] = r.ttr_hours
        codes[i] = code_of[r.category]
        loci[i] = locus_of[r.root_locus] if r.root_locus else -1
        months[i] = r.timestamp.month
        weekdays[i] = r.timestamp.weekday()
        hours[i] = r.timestamp.hour
        offsets[i + 1] = offsets[i] + len(r.gpus_involved)
        flat_slots.extend(r.gpus_involved)
    return columns_from_arrays(
        log.machine,
        (log.window_start - epoch) // _US,
        record_ids=ids,
        ts_us=ts_us,
        node_ids=nodes,
        ttr_hours=ttrs,
        category_names=unique,
        category_codes=codes,
        locus_names=locus_names,
        locus_codes=loci,
        slot_values=np.asarray(flat_slots, dtype=np.int32),
        slot_offsets=offsets,
        calendar=(months, weekdays, hours),
    )
