"""Append path: FailureLog / record batches -> committed segments.

An append builds the batch's :class:`~repro.core.columns.ColumnarView`
once and checks it as arrays; no ``FailureRecord`` is built or
rebuilt.  Which checks run where:

* **trusted from construction** — the per-record checks (non-negative
  ids, nodes and TTR, a non-empty category, unique GPU slots, stored
  sorted) ran when each ``FailureRecord`` was built, and a
  ``FailureLog`` batch's rows passed every record- and log-level check
  when the log was built or read.  None of these is repeated.
* **on the arrays** — the ``FailureLog`` invariants that depend on the
  store: every timestamp inside the store's window after this append,
  unique record ids, and (for a strict store) every category in the
  machine taxonomy.  They raise the ``ValidationError`` the log
  constructor raises, naming the first offending row in on-disk order.

Three store-level invariants are enforced on top:

* **naive timestamps** — the store keeps naive wall-clock
  microseconds since 1970-01-01, so a batch with tz-aware timestamps
  is refused before anything is written.
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

from dataclasses import replace
from itertools import chain, compress
from operator import attrgetter
from typing import Iterable

import numpy as np

from repro.core import taxonomy
from repro.core.columns import ColumnarView, columns_from_arrays
from repro.core.records import FailureLog, FailureRecord
from repro.errors import StoreError, ValidationError
from repro.store.segments import datetimes_to_us, us_to_datetime

__all__ = ["normalize_batch", "batch_columns"]

_PAD_US = 3_600_000_000  # first-append window pad: one hour
_NAIVE_ONLY = (
    "the store keeps naive timestamps (microseconds since "
    "1970-01-01, no time zone) but the batch's timestamps are "
    "tz-aware; convert them to naive wall-clock times first"
)


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
    where the log is a lazy log over the batch's view, in its final
    on-disk order with (possibly renumbered) ids, and the window
    values are the store's after this append.

    Raises:
        StoreError: On machine/taxonomy mismatch, an empty or tz-aware
            batch, a non-monotone batch, colliding record ids without
            ``reindex``, or a window origin mismatch.
        ValidationError: On a timestamp outside the window, a
            duplicate id, or a category outside a strict taxonomy.
    """
    arrays: dict | None = None
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
        if not len(batch):
            raise StoreError("cannot append an empty batch")
        if batch.window_start.tzinfo is not None:
            raise StoreError(_NAIVE_ONLY)
        batch_window = datetimes_to_us(
            [batch.window_start, batch.window_end]
        ).tolist()
        view = _own_tables(batch.columns, batch_window[0])
        ids, ts_us = view.record_ids, view.ts_us
    else:
        records = tuple(batch)
        if not records:
            raise StoreError("cannot append an empty batch")
        batch_window = None
        arrays = _record_arrays(records)
        ids, ts_us = arrays["record_ids"], arrays["ts_us"]

    first_us = int(ts_us[0])
    if watermark_us is not None and first_us < watermark_us:
        raise StoreError(
            f"append is not time-monotone: batch starts at "
            f"{us_to_datetime(first_us)} but the store's watermark is "
            f"{us_to_datetime(watermark_us)}"
        )

    if reindex:
        ids = np.arange(
            last_record_id + 1, last_record_id + 1 + len(ts_us),
            dtype=np.int64,
        )
    else:
        smallest = int(ids.min())
        if smallest <= last_record_id:
            raise StoreError(
                f"record id {smallest} collides with the store's "
                f"committed ids (last is {last_record_id}); renumber "
                f"the batch or pass reindex=True"
            )

    # Resolve the store window after this append.  A record batch's
    # own window is its span padded by an hour; a log's origin must be
    # the store's once the first append has fixed it.
    if batch_window is None:
        batch_window = [first_us - _PAD_US, int(ts_us[-1]) + _PAD_US]
    elif window_start_us is not None and batch_window[0] != window_start_us:
        raise StoreError(
            f"batch window starts at {batch.window_start} but the "
            f"store's window starts at {us_to_datetime(window_start_us)}; "
            f"the origin is fixed by the first append"
        )
    if window_start_us is None:
        new_start_us, new_end_us = batch_window
    else:
        new_start_us = window_start_us
        new_end_us = max(window_end_us or 0, batch_window[1])

    if arrays is None:
        if reindex:
            view = replace(view, record_ids=ids)
    else:
        arrays["record_ids"] = ids
        view = columns_from_arrays(machine, new_start_us, **arrays)
    _check_log(view, strict_taxonomy, new_start_us, new_end_us)
    log = FailureLog._from_columns(
        machine,
        us_to_datetime(new_start_us),
        us_to_datetime(new_end_us),
        view,
        strict_taxonomy,
    )
    return log, new_start_us, new_end_us


def _record_arrays(records: tuple[FailureRecord, ...]) -> dict:
    """``columns_from_arrays`` keywords of a record batch, in
    ``(timestamp, record_id)`` order, one C-level pass per field.

    Codes come from the sorted distinct names, and a falsy root locus
    becomes code -1, as :func:`~repro.core.columns.build_columns`
    codes them.
    """
    n = len(records)
    stamps = list(map(attrgetter("timestamp"), records))
    if set(map(attrgetter("tzinfo"), stamps)) != {None}:
        raise StoreError(_NAIVE_ONLY)
    categories = list(map(attrgetter("category"), records))
    category_names = sorted(set(categories))
    category_of = {name: code for code, name in enumerate(category_names)}
    loci = list(map(attrgetter("root_locus"), records))
    locus_names = tuple(sorted(set(filter(None, loci))))
    locus_of = dict.fromkeys(loci, -1)
    locus_of.update((name, code) for code, name in enumerate(locus_names))
    slots = list(map(attrgetter("gpus_involved"), records))
    sizes = np.fromiter(map(len, slots), dtype=np.int64, count=n)
    rows = {
        "record_ids": np.fromiter(
            map(attrgetter("record_id"), records), dtype=np.int64, count=n
        ),
        "ts_us": datetimes_to_us(stamps),
        "node_ids": np.fromiter(
            map(attrgetter("node_id"), records), dtype=np.int64, count=n
        ),
        "ttr_hours": np.fromiter(
            map(attrgetter("ttr_hours"), records), dtype=np.float64,
            count=n,
        ),
        "category_codes": np.fromiter(
            map(category_of.__getitem__, categories), dtype=np.int32,
            count=n,
        ),
        "locus_codes": np.fromiter(
            map(locus_of.__getitem__, loci), dtype=np.int32, count=n
        ),
    }
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    values = np.fromiter(
        chain.from_iterable(slots), dtype=np.int32, count=int(offsets[-1])
    )
    ids, ts_us = rows["record_ids"], rows["ts_us"]
    step = np.diff(ts_us)
    if not ((step > 0) | ((step == 0) & (np.diff(ids) > 0))).all():
        order = np.lexsort((ids, ts_us))  # stable, as sorted() is
        rows = {key: array[order] for key, array in rows.items()}
        # Gather each row's slot span from its old place.
        sizes = sizes[order]
        starts = offsets[:-1][order]
        np.cumsum(sizes, out=offsets[1:])
        values = values[
            np.repeat(starts - offsets[:-1], sizes)
            + np.arange(offsets[-1])
        ]
    return {
        **rows,
        "category_names": category_names,
        "locus_names": locus_names,
        "slot_values": values,
        "slot_offsets": offsets,
    }


def _own_tables(view: ColumnarView, window_start_us: int) -> ColumnarView:
    """``view`` with code tables holding only the names its rows use.

    A filtered log's view shares its parent's tables; the segment
    keeps the tables a view built from the rows themselves would have.
    """
    used = np.zeros(len(view.category_names), dtype=bool)
    used[view.category_codes] = True
    # Locus code -1 lands in the extra last slot.
    used_loci = np.zeros(len(view.locus_names) + 1, dtype=bool)
    used_loci[view.locus_codes] = True
    used_loci = used_loci[:-1]
    if used.all() and used_loci.all():
        return view
    category_code = (np.cumsum(used) - 1).astype(np.int32)
    locus_code = np.append(np.cumsum(used_loci) - 1, -1).astype(np.int32)
    return columns_from_arrays(
        view.machine,
        window_start_us,
        record_ids=view.record_ids,
        ts_us=view.ts_us,
        node_ids=view.node_ids,
        ttr_hours=view.ttr_hours,
        category_names=tuple(compress(view.category_names, used)),
        category_codes=category_code[view.category_codes],
        locus_names=tuple(compress(view.locus_names, used_loci)),
        locus_codes=locus_code[view.locus_codes],
        slot_values=view.slot_values,
        slot_offsets=view.slot_offsets,
        calendar=(view.months, view.weekdays, view.hours_of_day),
    )


def _check_log(
    view: ColumnarView, strict_taxonomy: bool, start_us: int, end_us: int
) -> None:
    """``FailureLog``'s log-level checks, on the batch's arrays.

    Raises the error the log constructor raises for the first row (in
    on-disk order) that fails any check, preferring, within a row, a
    duplicate id over a stamp outside the window over an unknown
    category, as its per-record loop does.
    """
    start, end = us_to_datetime(start_us), us_to_datetime(end_us)
    if end_us <= start_us:
        raise ValidationError(
            f"window_end ({end}) must be after window_start ({start})"
        )
    ids, ts_us, codes = view.record_ids, view.ts_us, view.category_codes
    by_id = np.argsort(ids, kind="stable")
    duplicate = np.zeros(len(ids), dtype=bool)
    duplicate[by_id[1:]] = ids[by_id[1:]] == ids[by_id[:-1]]
    outside = (ts_us < start_us) | (ts_us > end_us)
    bad = duplicate | outside
    if strict_taxonomy:
        valid = {cat.name for cat in taxonomy.categories_for(view.machine)}
        unknown = np.array(
            [name not in valid for name in view.category_names], dtype=bool
        )
        bad |= unknown[codes]
    if not bad.any():
        return
    row = int(np.argmax(bad))
    record_id = int(ids[row])
    if duplicate[row]:
        raise ValidationError(f"duplicate record_id {record_id}")
    if outside[row]:
        raise ValidationError(
            f"record {record_id} at {us_to_datetime(ts_us[row])} lies "
            f"outside the observation window [{start}, {end}]"
        )
    raise ValidationError(
        f"record {record_id} has category "
        f"{view.category_names[codes[row]]!r}, which is not in the "
        f"{view.machine} taxonomy"
    )


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
