"""Append path: FailureLog / record batches -> committed segments.

An append is validated the same way an in-memory log is (every record
runs the full ``FailureRecord``/``FailureLog`` validation), then
frozen into one immutable segment.  Two store-level invariants are
enforced on top:

* **time-monotone appends** — a batch's earliest timestamp may not
  precede the store's watermark (the latest committed timestamp).
  This is what makes event-time cuts (``as_of``) segment prefixes and
  the MTBF gap series incrementally maintainable.
* **monotone record ids** — every id in a batch must exceed the
  store's largest committed id, which guarantees global uniqueness
  without reading old segments back.  ``reindex=True`` renumbers the
  batch instead of rejecting it.
"""

from __future__ import annotations

from datetime import timedelta
from typing import Iterable

import numpy as np

from repro.core.records import FailureLog, FailureRecord
from repro.errors import StoreError
from repro.store.segments import datetimes_to_us, us_to_datetime

__all__ = ["normalize_batch", "batch_columns"]

_PAD = timedelta(hours=1)


def normalize_batch(
    batch: "FailureLog | Iterable[FailureRecord]",
    machine: str,
    strict_taxonomy: bool,
    window_start_us: int | None,
    window_end_us: int | None,
    watermark_us: int | None,
    last_record_id: int,
    reindex: bool,
) -> tuple[FailureLog, int, int]:
    """Validate a batch against the store's invariants.

    Returns ``(validated_log, new_window_start_us, new_window_end_us)``
    where the log carries the (possibly renumbered) records in their
    final on-disk order and the window values are the store's after
    this append.

    Raises:
        StoreError: On machine/taxonomy mismatch, a non-monotone
            batch, or colliding record ids without ``reindex``.
    """
    if isinstance(batch, FailureLog):
        if batch.machine != machine:
            raise StoreError(
                f"store holds {machine!r} events but the batch is for "
                f"{batch.machine!r}"
            )
        if batch._strict_taxonomy != strict_taxonomy:
            raise StoreError(
                "batch taxonomy strictness "
                f"({batch._strict_taxonomy}) does not match the "
                f"store's ({strict_taxonomy})"
            )
        records = batch.records
        batch_window = (batch.window_start, batch.window_end)
    else:
        records = tuple(
            sorted(batch, key=lambda r: (r.timestamp, r.record_id))
        )
        batch_window = None
    if not records:
        raise StoreError("cannot append an empty batch")

    stamps_us = datetimes_to_us([r.timestamp for r in records])
    first_us = int(stamps_us[0])
    last_us = int(stamps_us[-1])
    if watermark_us is not None and first_us < watermark_us:
        raise StoreError(
            f"append is not time-monotone: batch starts at "
            f"{us_to_datetime(first_us)} but the store's watermark is "
            f"{us_to_datetime(watermark_us)}"
        )

    if reindex:
        records = tuple(
            FailureRecord(
                record_id=last_record_id + 1 + offset,
                timestamp=r.timestamp,
                node_id=r.node_id,
                category=r.category,
                ttr_hours=r.ttr_hours,
                gpus_involved=r.gpus_involved,
                root_locus=r.root_locus,
            )
            for offset, r in enumerate(records)
        )
    else:
        smallest = min(r.record_id for r in records)
        if smallest <= last_record_id:
            raise StoreError(
                f"record id {smallest} collides with the store's "
                f"committed ids (last is {last_record_id}); renumber "
                f"the batch or pass reindex=True"
            )

    # Resolve the store window after this append.
    if window_start_us is None:
        # First append fixes the window origin.
        if batch_window is not None:
            new_start_us = int(datetimes_to_us([batch_window[0]])[0])
            new_end_us = int(datetimes_to_us([batch_window[1]])[0])
        else:
            new_start_us = int(
                datetimes_to_us([records[0].timestamp - _PAD])[0]
            )
            new_end_us = int(
                datetimes_to_us([records[-1].timestamp + _PAD])[0]
            )
    else:
        new_start_us = window_start_us
        if batch_window is not None:
            batch_start_us = int(datetimes_to_us([batch_window[0]])[0])
            if batch_start_us != window_start_us:
                raise StoreError(
                    f"batch window starts at {batch_window[0]} but the "
                    f"store's window starts at "
                    f"{us_to_datetime(window_start_us)}; the origin is "
                    f"fixed by the first append"
                )
            new_end_us = max(
                window_end_us or 0,
                int(datetimes_to_us([batch_window[1]])[0]),
            )
        else:
            new_end_us = max(
                window_end_us or 0,
                int(datetimes_to_us([records[-1].timestamp + _PAD])[0]),
            )
    del last_us

    # Full validation: window containment, id uniqueness, taxonomy.
    log = FailureLog(
        machine=machine,
        records=records,
        window_start=us_to_datetime(new_start_us),
        window_end=us_to_datetime(new_end_us),
        _strict_taxonomy=strict_taxonomy,
    )
    return log, new_start_us, new_end_us


def batch_columns(
    log: FailureLog,
) -> tuple[dict[str, np.ndarray], tuple[str, ...], tuple[str, ...]]:
    """Segment-shaped column arrays of a validated batch.

    Reuses the batch's own :class:`ColumnarView` (the exact arrays
    ``build_columns`` derives — identity columns, calendar fields,
    category and locus codes, slot CSR), so what lands on disk is
    bit-identical to what the in-memory layer computes.
    """
    cols = log.columns
    columns = {
        "record_id": cols.record_ids,
        "ts_us": cols.ts_us,
        "node_id": cols.node_ids,
        "ttr_hours": cols.ttr_hours,
        "category": cols.category_codes,
        "locus": cols.locus_codes,
        "month": cols.months,
        "weekday": cols.weekdays,
        "hour": cols.hours_of_day,
        "slot_offsets": cols.slot_offsets,
        "slot_values": cols.slot_values,
    }
    return columns, cols.category_names, cols.locus_names
