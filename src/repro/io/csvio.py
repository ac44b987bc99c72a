"""CSV reading and writing of failure logs.

The CSV carries a small comment header (lines starting with ``#``)
recording the machine name and observation window, so a file round-trips
into an identical :class:`~repro.core.records.FailureLog`.

Reading supports the tolerant-ingest modes of
:mod:`repro.io.tolerant`: ``read_csv(path, on_error="collect")``
quarantines malformed rows (bad values, duplicate ids, out-of-window
timestamps, unknown categories) instead of aborting, and returns a
:class:`~repro.io.tolerant.LogReadReport`.
"""

from __future__ import annotations

import csv
from datetime import datetime
from itertools import chain, repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.core.columns import columns_from_arrays, datetimes_to_us
from repro.core.records import FailureLog, FailureRecord
from repro.core.taxonomy import categories_for
from repro.errors import SerializationError, TaxonomyError, ValidationError
from repro.io.schema import (
    CSV_COLUMNS,
    _parse_gpus,
    record_from_row,
    record_to_row,
)
from repro.io.tolerant import LogReadReport, RowQuarantine, sift_records

__all__ = ["write_csv", "read_csv"]

_META_PREFIX = "#"


def write_csv(log: FailureLog, path: str | Path) -> None:
    """Write a failure log to ``path`` as CSV with a metadata header."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write(f"{_META_PREFIX} machine={log.machine}\n")
        handle.write(
            f"{_META_PREFIX} window_start={log.window_start.isoformat()}\n"
        )
        handle.write(
            f"{_META_PREFIX} window_end={log.window_end.isoformat()}\n"
        )
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for record in log:
            writer.writerow(record_to_row(record))


def _parse_metadata(lines: list[str]) -> dict[str, str]:
    metadata: dict[str, str] = {}
    for line in lines:
        body = line[len(_META_PREFIX):].strip()
        if "=" not in body:
            raise SerializationError(
                f"malformed metadata line {line.strip()!r}"
            )
        key, _, value = body.partition("=")
        metadata[key.strip()] = value.strip()
    return metadata


def read_csv(
    path: str | Path, on_error: str = "raise"
) -> FailureLog | LogReadReport:
    """Read a failure log written by :func:`write_csv`.

    The body is parsed column-wise into the log's
    :class:`~repro.core.columns.ColumnarView` (records are built only
    on first touch).  A file with any anomaly — a malformed or invalid
    row, duplicate ids, out-of-window or tz-aware timestamps, unknown
    categories, ragged rows — or with quoted fields is re-read row by
    row, so errors and quarantine reports are those of the per-row
    reader.

    Args:
        path: CSV path.
        on_error: ``"raise"`` aborts on the first malformed row (the
            strict default); ``"skip"`` drops malformed rows;
            ``"collect"`` additionally returns a
            :class:`~repro.io.tolerant.LogReadReport` with per-row
            diagnostics instead of the bare log.

    Raises:
        SerializationError: On missing/malformed metadata (always), or
            on a malformed row in ``"raise"`` mode.
    """
    path = Path(path)
    quarantine = RowQuarantine(on_error, path=str(path))
    with path.open(newline="") as handle:
        meta_lines: list[str] = []
        position = handle.tell()
        while True:
            line = handle.readline()
            if line.startswith(_META_PREFIX):
                meta_lines.append(line)
                position = handle.tell()
            else:
                handle.seek(position)
                break
        metadata = _parse_metadata(meta_lines)
        for key in ("machine", "window_start", "window_end"):
            if key not in metadata:
                raise SerializationError(
                    f"{path} is missing the {key!r} metadata line"
                )
        log = _read_columns(handle.read(), metadata)
        if log is None:
            handle.seek(position)
            log = _read_rows(handle, path, metadata, len(meta_lines),
                             quarantine)
    if on_error == "collect":
        return quarantine.report(log, format="csv")
    return log


def _read_rows(
    handle: TextIO,
    path: Path,
    metadata: dict[str, str],
    meta_line_count: int,
    quarantine: RowQuarantine,
) -> FailureLog:
    """The per-row reader: one validated record per row."""
    reader = csv.DictReader(handle)
    # Physical line = metadata lines + header/body lines the csv
    # reader has consumed so far.
    rows: list[tuple[int, dict, FailureRecord]] = []
    for row in reader:
        line_number = meta_line_count + reader.line_num
        try:
            rows.append((line_number, row, record_from_row(row)))
        except (SerializationError, ValidationError) as exc:
            quarantine.add(
                line_number,
                str(exc),
                field=getattr(exc, "field", None),
                raw=_preview(row),
                cause=exc,
            )
    try:
        window_start = datetime.fromisoformat(metadata["window_start"])
        window_end = datetime.fromisoformat(metadata["window_end"])
    except ValueError as exc:
        raise SerializationError(
            f"{path} has malformed window timestamps: {exc}"
        ) from exc
    if quarantine.lenient:
        records = sift_records(
            metadata["machine"], window_start, window_end, rows,
            quarantine, preview=_preview,
        )
    else:
        records = [record for _, _, record in rows]
    return FailureLog(
        machine=metadata["machine"],
        records=tuple(records),
        window_start=window_start,
        window_end=window_end,
    )


def _read_columns(text: str, metadata: dict[str, str]) -> FailureLog | None:
    """Parse and validate the body column-wise into a lazy log.

    Checks on the arrays every invariant ``FailureRecord`` and
    ``FailureLog`` enforce, and sorts rows that are out of
    ``(timestamp, record_id)`` order.  Returns None on any anomaly and
    on input this path does not model (no body, quoted fields, bare CR
    line ends, ragged rows, tz-aware stamps, GPU slots out of order);
    the per-row reader then produces the log or the exact error.
    """
    # Without quotes, NULs, bare CRs or over-long lines, csv.reader's
    # fields are exactly the comma-split lines.
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    width = len(header)
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    fields = ",".join(lines[1:]).split(",")
    column = {name: fields[i::width] for i, name in enumerate(header)}
    if len(column) != width or not column.keys() >= set(CSV_COLUMNS):
        return None
    machine = metadata["machine"]
    n = len(lines) - 1
    try:
        window_start = datetime.fromisoformat(metadata["window_start"])
        window_end = datetime.fromisoformat(metadata["window_end"])
        start_us, end_us = datetimes_to_us(
            [window_start, window_end]
        ).tolist()
        ts_us = _stamps_to_us(column["timestamp"])
        record_ids = np.fromiter(
            map(int, column["record_id"]), dtype=np.int64, count=n
        )
        node_ids = np.fromiter(
            map(int, column["node_id"]), dtype=np.int64, count=n
        )
        ttr_hours = np.fromiter(
            map(float, column["ttr_hours"]), dtype=np.float64, count=n
        )
        # Few distinct slot lists recur: parse and check each once.
        slots_of = {text: _parse_gpus(text) for text in set(column["gpus"])}
    except (ValueError, TypeError, OverflowError):
        return None
    try:
        valid_names = {cat.name for cat in categories_for(machine)}
    except TaxonomyError:
        return None
    names = sorted(set(column["category"]))
    if (
        start_us >= end_us
        or ts_us.min() < start_us
        or ts_us.max() > end_us
        or record_ids.min() < 0
        or node_ids.min() < 0
        or not (ttr_hours >= 0.0).all()  # also rejects NaN
        or not set(names) <= valid_names  # also rejects ""
        or np.unique(record_ids).size != n
        or not all(
            0 <= gpus[0] and all(a < b for a, b in zip(gpus, gpus[1:]))
            for gpus in slots_of.values()
            if gpus
        )
    ):
        return None
    locus_names = tuple(sorted(set(column["root_locus"]) - {""}))
    gpu_lists = list(slots_of.values())
    arrays = {
        "record_ids": record_ids,
        "ts_us": ts_us,
        "node_ids": node_ids,
        "ttr_hours": ttr_hours,
        "category_codes": _codes(column["category"], names),
        "locus_codes": _codes(column["root_locus"], ("", *locus_names)) - 1,
        "gpu_codes": _codes(column["gpus"], list(slots_of)),
    }
    step = np.diff(ts_us)
    if not ((step > 0) | ((step == 0) & (np.diff(record_ids) > 0))).all():
        order = np.lexsort((record_ids, ts_us))
        arrays = {key: array[order] for key, array in arrays.items()}
    gpus = list(map(gpu_lists.__getitem__, arrays.pop("gpu_codes").tolist()))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, gpus), dtype=np.int64, count=n),
        out=offsets[1:],
    )
    view = columns_from_arrays(
        machine,
        start_us,
        category_names=names,
        locus_names=locus_names,
        slot_values=np.fromiter(
            chain.from_iterable(gpus), dtype=np.int32, count=int(offsets[-1])
        ),
        slot_offsets=offsets,
        **arrays,
    )
    return FailureLog._from_columns(machine, window_start, window_end, view)


#: ``YYYY-MM-DDTHH:MM:SS.ffffff`` as ASCII bytes: each byte's lowest
#: value, and how far above it the byte may go (9 for a digit).
_STAMP_LOW = np.frombuffer(b"0000-00-00T00:00:00.000000", dtype=np.uint8)
_STAMP_SPAN = np.where(_STAMP_LOW == ord("0"), 9, 0).astype(np.uint8)
_YEAR_ONE_US = int(np.datetime64("0001-01-01", "us").astype(np.int64))


def _stamps_to_us(stamps: list[str]) -> np.ndarray:
    """Microseconds since the epoch of naive ISO-format stamps.

    When every stamp is ``YYYY-MM-DDTHH:MM:SS`` or
    ``YYYY-MM-DDTHH:MM:SS.ffffff`` in ASCII digits with a year >= 1,
    numpy parses them in C: on those shapes it reads what
    ``fromisoformat`` reads and rejects the dates and times it
    rejects.  Anything else goes through ``fromisoformat``, since
    numpy accepts input it rejects or reads differently (``NaT``,
    ``today``, ``2012-01``, year 0, zone suffixes).

    Raises:
        ValueError: On a stamp ``fromisoformat`` rejects.
        TypeError: On a tz-aware stamp.
    """
    if _iso_shaped(stamps):
        ts_us = np.array(stamps, dtype="datetime64[us]").view(np.int64)
        if ts_us.min() >= _YEAR_ONE_US:
            return ts_us
    return datetimes_to_us(list(map(datetime.fromisoformat, stamps)))


def _iso_shaped(stamps: list[str]) -> bool:
    """Whether every stamp has one of the two shapes numpy may parse."""
    try:
        text = np.frombuffer("".join(stamps).encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return False
    lengths = np.fromiter(map(len, stamps), dtype=np.int64, count=len(stamps))
    fraction = lengths == 26
    if not (fraction | (lengths == 19)).all():
        return False
    if fraction.all() or not fraction.any():
        blocks = [text.reshape(len(stamps), -1)]
    else:  # both shapes: gather every head, then the fractions whole
        starts = np.cumsum(lengths) - lengths
        blocks = [
            text[starts[:, None] + np.arange(19)],
            text[starts[fraction, None] + np.arange(26)],
        ]
    # uint8 wraps below the lowest value, so one comparison suffices.
    return all(
        (block - _STAMP_LOW[:block.shape[1]]
         <= _STAMP_SPAN[:block.shape[1]]).all()
        for block in blocks
    )


def _codes(values: list[str], table) -> np.ndarray:
    """Position of each value in ``table`` (which holds every value)."""
    code_of = {value: code for code, value in enumerate(table)}
    return np.fromiter(
        map(code_of.__getitem__, values), dtype=np.int32, count=len(values)
    )


def _preview(row: dict) -> str:
    """Compact raw-ish preview of a parsed csv row."""
    return ",".join(
        "" if value is None else str(value)
        for value in row.values()
    )
