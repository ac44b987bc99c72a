"""Zero-copy reads: segments -> ColumnarView / FailureLog.

The read path materializes the same structures the in-memory layer
builds from records — :class:`~repro.core.columns.ColumnarView` for
the vectorized kernels, :class:`~repro.core.records.FailureLog` for
the record API — but sources the column arrays from the mmap'd
segments.  For a single-segment store the stored columns (record
ids, timestamps, node ids, TTR, category and locus codes, calendar
fields, slot CSR) are handed out as
direct read-only views over the mapping: NumPy's base chain keeps the
mmap alive under every derived array, so no bytes are copied and no
lifetime bugs are possible.  Multi-segment stores concatenate, which
compaction (:mod:`repro.store.compact`) remedies.

Bit-identity: the assembled view reproduces
:func:`repro.core.columns.build_columns` exactly — the global
category table is the sorted union of segment tables (== the sorted
unique categories present), and class/GPU codes and hour offsets come
from the same :func:`~repro.core.columns.columns_from_arrays` every
builder uses — so a round trip through the store is indistinguishable
from having built the log in memory.  The log's records are rebuilt
from the view's identity columns only when first touched.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.columns import ColumnarView, columns_from_arrays
from repro.core.records import FailureLog
from repro.store.segments import Segment, us_to_datetime

__all__ = ["assemble_view", "materialize_log", "cut_rows"]


def cut_rows(segment: Segment, as_of_us: int | None) -> int:
    """Rows of a segment visible at ``as_of_us`` (all when None).

    Appends are time-monotone and segments store records in order, so
    an event-time cut is always a row *prefix* — found by bisecting
    the timestamp column.
    """
    if as_of_us is None or segment.max_ts_us <= as_of_us:
        return segment.rows
    if segment.min_ts_us > as_of_us:
        return 0
    return int(
        np.searchsorted(segment.col("ts_us"), as_of_us, side="right")
    )


def _remap(
    codes: np.ndarray,
    local: tuple[str, ...],
    table: tuple[str, ...],
    none_sentinel: bool = False,
) -> np.ndarray:
    """Translate segment-local codes into a global table's codes."""
    if local == table:
        return codes
    lookup = np.empty(
        len(local) + (1 if none_sentinel else 0), dtype=np.int32
    )
    for index, name in enumerate(local):
        lookup[index] = table.index(name)
    if none_sentinel:
        # -1 (no locus) indexes the extra trailing slot.
        lookup[-1] = -1
    return lookup[codes]


def assemble_view(
    segments: Sequence[Segment],
    machine: str,
    window_start_us: int,
    as_of_us: int | None = None,
) -> ColumnarView:
    """Build a ColumnarView over the segments' mmap'd columns."""
    visible = []
    for segment in segments:
        rows = cut_rows(segment, as_of_us)
        if rows:
            visible.append((segment, rows))

    names: set[str] = set()
    loci: set[str] = set()
    for segment, _ in visible:
        names.update(segment.category_table)
        loci.update(segment.locus_table)
    table = tuple(sorted(names))
    locus_table = tuple(sorted(loci))

    def prefix(segment: Segment, name: str, rows: int) -> np.ndarray:
        array = segment.col(name)
        return array if rows == segment.rows else array[:rows]

    if len(visible) == 1:
        segment, rows = visible[0]
        ts_us = prefix(segment, "ts_us", rows)
        record_ids = prefix(segment, "record_id", rows)
        node_ids = prefix(segment, "node_id", rows)
        ttr = prefix(segment, "ttr_hours", rows)
        codes = _remap(
            prefix(segment, "category", rows),
            segment.category_table,
            table,
        )
        locus_codes = _remap(
            prefix(segment, "locus", rows),
            segment.locus_table,
            locus_table,
            none_sentinel=True,
        )
        months = prefix(segment, "month", rows)
        weekdays = prefix(segment, "weekday", rows)
        hours = prefix(segment, "hour", rows)
        offsets = segment.col("slot_offsets")[: rows + 1]
        slot_values = segment.col("slot_values")[: int(offsets[-1])]
    elif visible:
        parts: dict[str, list[np.ndarray]] = {
            key: []
            for key in (
                "ts_us", "record_id", "node_id", "ttr_hours",
                "category", "locus", "month", "weekday", "hour",
                "slot_values",
            )
        }
        offset_parts: list[np.ndarray] = []
        base = 0
        for segment, rows in visible:
            for key in (
                "ts_us", "record_id", "node_id", "ttr_hours",
                "month", "weekday", "hour",
            ):
                parts[key].append(prefix(segment, key, rows))
            parts["category"].append(
                _remap(
                    prefix(segment, "category", rows),
                    segment.category_table,
                    table,
                )
            )
            parts["locus"].append(
                _remap(
                    prefix(segment, "locus", rows),
                    segment.locus_table,
                    locus_table,
                    none_sentinel=True,
                )
            )
            seg_offsets = segment.col("slot_offsets")[: rows + 1]
            slots = int(seg_offsets[-1])
            parts["slot_values"].append(
                segment.col("slot_values")[:slots]
            )
            offset_parts.append(seg_offsets[:-1] + base)
            base += slots
        offset_parts.append(np.asarray([base], dtype=np.int64))
        ts_us = np.concatenate(parts["ts_us"])
        record_ids = np.concatenate(parts["record_id"])
        node_ids = np.concatenate(parts["node_id"])
        ttr = np.concatenate(parts["ttr_hours"])
        codes = np.concatenate(parts["category"])
        locus_codes = np.concatenate(parts["locus"])
        months = np.concatenate(parts["month"])
        weekdays = np.concatenate(parts["weekday"])
        hours = np.concatenate(parts["hour"])
        slot_values = np.concatenate(parts["slot_values"])
        offsets = np.concatenate(offset_parts)
    else:
        ts_us = record_ids = node_ids = np.empty(0, dtype=np.int64)
        ttr = np.empty(0, dtype=np.float64)
        codes = locus_codes = np.empty(0, dtype=np.int32)
        months = weekdays = hours = np.empty(0, dtype=np.int8)
        slot_values = np.empty(0, dtype=np.int32)
        offsets = np.zeros(1, dtype=np.int64)

    return columns_from_arrays(
        machine,
        window_start_us,
        record_ids=record_ids,
        ts_us=ts_us,
        node_ids=node_ids,
        ttr_hours=ttr,
        category_names=table,
        category_codes=codes,
        locus_names=locus_table,
        locus_codes=locus_codes,
        slot_values=slot_values,
        slot_offsets=offsets,
        calendar=(months, weekdays, hours),
    )


def materialize_log(
    segments: Sequence[Segment],
    machine: str,
    window_start_us: int,
    window_end_us: int,
    strict_taxonomy: bool,
    as_of_us: int | None = None,
) -> FailureLog:
    """Materialize a FailureLog over the assembled columnar view.

    Log-level invariants (chronological order, unique ids, in-window
    timestamps) are guaranteed by the store's append rules and
    checksums, so :meth:`FailureLog._from_columns` applies: kernels
    run on the mmap'd arrays, and records are built from them only
    when first touched.
    """
    return FailureLog._from_columns(
        machine,
        us_to_datetime(window_start_us),
        us_to_datetime(window_end_us),
        assemble_view(segments, machine, window_start_us, as_of_us),
        strict_taxonomy=strict_taxonomy,
    )
