"""Row-wise store writer, kept as the oracle for the columnar writer.

``normalize_batch`` is the writer ``repro.store.writer`` used before it
checked batches as arrays: it sorts the records, rebuilds every record
under ``reindex=True``, and re-validates the batch by constructing an
eager ``FailureLog``, whose columns ``build_columns`` then derives row
by row.  :func:`oracle_writer` swaps it into ``FailureStore.append``,
so the parity tests can hold the columnar writer to it: the same
segment bytes, manifest history and ``views.json``, or the same
exception type and message.
"""

from __future__ import annotations

from contextlib import contextmanager
from datetime import timedelta
from typing import Iterable, Iterator

from repro.core.records import FailureLog, FailureRecord
from repro.errors import StoreError
from repro.store import store as store_module
from repro.store.segments import datetimes_to_us, us_to_datetime

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
    """The row-wise writer: same signature and result as
    ``repro.store.writer.normalize_batch``, with an eager log."""
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

    if window_start_us is None:
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

    log = FailureLog(
        machine=machine,
        records=records,
        window_start=us_to_datetime(new_start_us),
        window_end=us_to_datetime(new_end_us),
        _strict_taxonomy=strict_taxonomy,
    )
    return log, new_start_us, new_end_us


@contextmanager
def oracle_writer() -> Iterator[None]:
    """Run ``FailureStore.append`` through the row-wise writer."""
    columnar = store_module.normalize_batch
    store_module.normalize_batch = normalize_batch
    try:
        yield
    finally:
        store_module.normalize_batch = columnar
