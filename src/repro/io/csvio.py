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

import codecs
import csv
from datetime import datetime
from itertools import chain
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
        log = _read_columns(_body_bytes(handle, meta_lines), metadata)
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


def _body_bytes(handle: TextIO, meta_lines: list[str]) -> bytes:
    """The body (header line on) of a file whose metadata was read.

    A UTF-8 body is read undecoded from the handle's buffer; any other
    text encoding is decoded as the text handle reads it and
    re-encoded as UTF-8, the encoding the columnar path decodes.
    """
    if codecs.lookup(handle.encoding).name != "utf-8":
        return handle.read().encode()
    handle.buffer.seek(len("".join(meta_lines).encode()))
    return handle.buffer.read()


_COMMA, _NEWLINE, _CR = b",\n\r"


def _read_columns(body: bytes, metadata: dict[str, str]) -> FailureLog | None:
    """Parse and validate the body column-wise into a lazy log.

    The body is tokenized as bytes: the delimiters' positions give
    every field's span, and each column converts from its own bytes.
    Checks on the arrays every invariant ``FailureRecord`` and
    ``FailureLog`` enforce, and sorts rows that are out of
    ``(timestamp, record_id)`` order.  Returns None on any anomaly and
    on input this path does not model (no body, quoted fields, bare CR
    line ends, ragged rows, invalid UTF-8, tz-aware stamps, GPU slots
    out of order); the per-row reader then produces the log or the
    exact error.
    """
    # Without quotes, NULs, bare CRs or over-long fields, csv.reader's
    # fields are exactly the bytes between commas and line ends.
    if b'"' in body or b"\0" in body:
        return None
    if not body.isascii():
        try:
            body.decode()
        except UnicodeDecodeError:
            return None
    if not body.endswith(b"\n"):
        body += b"\n"
    header = body[:body.index(b"\n")].decode().removesuffix("\r").split(",")
    width = len(header)
    column = {name: index for index, name in enumerate(header)}
    if len(column) != width or not column.keys() >= set(CSV_COLUMNS):
        return None
    raw = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero((raw == _COMMA) | (raw == _NEWLINE))
    if ends.size % width or ends.size == width:
        return None
    line_ends = (raw[ends] == _NEWLINE).reshape(-1, width)
    if not line_ends[:, -1].all() or line_ends[:, :-1].any():
        return None  # ragged rows or blank lines
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    starts = starts.reshape(-1, width)
    ends = ends.reshape(-1, width)
    if b"\r" in body:
        # CRLF line ends: the CR closes each line's last field.  Any
        # other CR is a bare one.
        crlf = raw[ends[:, -1] - 1] == _CR
        if np.count_nonzero(crlf) != np.count_nonzero(raw == _CR):
            return None
        ends[:, -1] -= crlf
    starts, ends = starts[1:], ends[1:]
    lengths = ends - starts
    longest = int(lengths.max())
    # A field has at least as many bytes as characters, so every field
    # csv.reader would reject as too long goes to the row reader.
    if longest > csv.field_size_limit():
        return None
    padded = np.concatenate([raw, np.zeros(longest + 8, dtype=np.uint8)])
    fields = {
        name: _Fields(body, padded, starts[:, column[name]],
                      lengths[:, column[name]])
        for name in CSV_COLUMNS
    }
    machine = metadata["machine"]
    n = len(starts)
    try:
        window_start = datetime.fromisoformat(metadata["window_start"])
        window_end = datetime.fromisoformat(metadata["window_end"])
        start_us, end_us = datetimes_to_us(
            [window_start, window_end]
        ).tolist()
        ts_us = fields["timestamp"].stamps()
        record_ids = fields["record_id"].ints()
        node_ids = fields["node_id"].ints()
        ttr_hours = fields["ttr_hours"].floats()
        categories, category_codes = fields["category"].distinct()
        loci, locus_codes = fields["root_locus"].distinct()
        slot_texts, gpu_codes = fields["gpus"].distinct()
        # Few distinct slot lists recur: parse and check each once.
        slot_lists = list(map(_parse_gpus, slot_texts))
        list_sizes = np.fromiter(
            map(len, slot_lists), dtype=np.int64, count=len(slot_lists)
        )
        list_values = np.fromiter(
            chain.from_iterable(slot_lists), dtype=np.int32,
            count=int(list_sizes.sum()),
        )
    except (ValueError, TypeError, OverflowError):
        return None
    try:
        valid_names = {cat.name for cat in categories_for(machine)}
    except TaxonomyError:
        return None
    if (
        start_us >= end_us
        or ts_us.min() < start_us
        or ts_us.max() > end_us
        or record_ids.min() < 0
        or node_ids.min() < 0
        or not (ttr_hours >= 0.0).all()  # also rejects NaN
        or not set(categories) <= valid_names  # also rejects ""
        or not all(
            0 <= gpus[0] and all(a < b for a, b in zip(gpus, gpus[1:]))
            for gpus in slot_lists
            if gpus
        )
    ):
        return None
    names = sorted(categories)
    locus_names = tuple(sorted(set(loci) - {""}))
    arrays = {
        "record_ids": record_ids,
        "ts_us": ts_us,
        "node_ids": node_ids,
        "ttr_hours": ttr_hours,
        "category_codes": _recode(category_codes, categories, names),
        "locus_codes": _recode(locus_codes, loci, ("", *locus_names)) - 1,
        "gpu_codes": gpu_codes,
    }
    step = np.diff(ts_us)
    if not ((step > 0) | ((step == 0) & (np.diff(record_ids) > 0))).all():
        order = np.lexsort((record_ids, ts_us))
        arrays = {key: array[order] for key, array in arrays.items()}
    if (np.diff(np.sort(arrays["record_ids"])) == 0).any():
        return None  # duplicate ids
    gpu_codes = arrays.pop("gpu_codes")
    # Each row's slots, gathered from the distinct lists it points at.
    sizes = list_sizes[gpu_codes]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    list_starts = np.zeros(len(slot_lists), dtype=np.int64)
    np.cumsum(list_sizes[:-1], out=list_starts[1:])
    view = columns_from_arrays(
        machine,
        start_us,
        category_names=names,
        locus_names=locus_names,
        slot_values=list_values[
            np.repeat(list_starts[gpu_codes] - offsets[:-1], sizes)
            + np.arange(offsets[-1])
        ],
        slot_offsets=offsets,
        **arrays,
    )
    return FailureLog._from_columns(machine, window_start, window_end, view)


#: ``YYYY-MM-DDTHH:MM:SS.ffffff`` as ASCII bytes: each byte's lowest
#: value, and how far above it the byte may go (9 for a digit).
_STAMP_LOW = np.frombuffer(b"0000-00-00T00:00:00.000000", dtype=np.uint8)
_STAMP_SPAN = np.where(_STAMP_LOW == ord("0"), 9, 0).astype(np.uint8)
_YEAR_ONE_US = int(np.datetime64("0001-01-01", "us").astype(np.int64))
#: The most digits whose value always fits an int64 (10**18 - 1).
_MAX_DIGITS = 18
#: Odd multiplier folding a field's 8-byte words into one hash key.
#: Sorting uint64 keys beats one ``np.unique`` of the ``S{width}``
#: view: ``read_log`` of the 30x e2e CSV took 45.6-52.8 ms with the
#: keys and 60.0-63.1 ms with the S view alone (medians of 30 reads
#: per process, three alternating pairs of processes, 2-CPU host).
_WORD_MIX = np.uint64(0x9E3779B97F4A7C15)


class _Fields:
    """One CSV column: each row's field as a span of the body's bytes.

    Each conversion takes a numpy path on the fields whose shape it
    models exactly and otherwise gives the column's field strings to
    the same Python conversion the per-row reader applies.
    """

    def __init__(
        self,
        body: bytes,
        padded: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
    ) -> None:
        self.body = body
        #: The body's bytes with zeros after it, so that a window of
        #: any field's width may start at any field.
        self.padded = padded
        self.starts = starts
        self.lengths = lengths

    def fits(self, width: int) -> bool:
        """Whether a ``(rows, width)`` block is no larger than the body.

        One long field widens every row's window to its length, so a
        column with one is converted from its strings instead.
        """
        return len(self.starts) * width <= len(self.body)

    def block(self, width: int) -> np.ndarray:
        """``(rows, width)`` bytes of each field, zeros past its end.

        The body holds no NUL, so a zero byte is always padding.
        """
        windows = np.lib.stride_tricks.sliding_window_view(self.padded, width)
        block = windows[self.starts]
        if self.lengths.min() < width:
            block *= np.arange(width) < self.lengths[:, None]
        return block

    def strings(self, rows: np.ndarray | None = None) -> list[str]:
        """The decoded fields, of every row or of ``rows``."""
        starts, lengths = self.starts, self.lengths
        if rows is not None:
            starts, lengths = starts[rows], lengths[rows]
        body = self.body
        return [
            body[start:start + length].decode()
            for start, length in zip(starts.tolist(), lengths.tolist())
        ]

    def ints(self) -> np.ndarray:
        """``int()`` of each field, as int64.

        A column of 1 to 18 ASCII digits per field is evaluated
        exactly in numpy; any other field (signs, spaces, underscores,
        non-ASCII digits, more digits) leaves the column to ``int()``.

        Raises:
            ValueError: On a field ``int()`` rejects.
            OverflowError: On a value outside int64.
        """
        lengths = self.lengths
        width = int(lengths.max())
        if lengths.min() >= 1 and width <= _MAX_DIGITS and self.fits(width):
            # A field padded with zeros on the right reads as its
            # value * 10**padding.
            digits = self.block(width)
            np.subtract(digits, np.uint8(ord("0")), out=digits,
                        where=digits != 0)
            if (digits <= 9).all():
                values = np.zeros(len(lengths), dtype=np.int64)
                for place in digits.T:  # Horner's rule, one place a pass
                    values *= 10
                    values += place
                return values // 10 ** (width - lengths)
        return np.fromiter(
            map(int, self.strings()), dtype=np.int64, count=len(lengths)
        )

    def floats(self) -> np.ndarray:
        """``float()`` of each field.

        ``float`` reads printable-ASCII bytes as it reads the same
        text, so such columns skip the decode; any other byte (control
        characters, non-ASCII digits and spaces) leaves the column to
        the decoded strings, as does a field too long to gather.

        Raises:
            ValueError: On a field ``float()`` rejects.
        """
        width = max(int(self.lengths.max()), 1)
        fields = None
        if self.fits(width):
            block = self.block(width)
            if ((block - np.uint8(ord(" ")) < 95) | (block == 0)).all():
                # S items drop the trailing NUL padding.
                fields = block.view(f"S{width}").ravel().tolist()
        if fields is None:
            fields = self.strings()
        return np.fromiter(
            map(float, fields), dtype=np.float64, count=len(fields)
        )

    def stamps(self) -> np.ndarray:
        """Microseconds since the epoch of naive ISO-format stamps.

        When every stamp is ``YYYY-MM-DDTHH:MM:SS`` or
        ``YYYY-MM-DDTHH:MM:SS.ffffff`` in ASCII digits with a year
        >= 1, numpy parses them in C: on those shapes it reads what
        ``fromisoformat`` reads and rejects the dates and times it
        rejects.  Anything else goes through ``fromisoformat``, since
        numpy accepts input it rejects or reads differently (``NaT``,
        ``today``, ``2012-01``, year 0, zone suffixes).

        Raises:
            ValueError: On a stamp ``fromisoformat`` rejects.
            TypeError: On a tz-aware stamp.
        """
        lengths = self.lengths
        width = int(lengths.max())
        if ((lengths == 19) | (lengths == 26)).all() and self.fits(width):
            block = self.block(width)
            # uint8 wraps below the lowest value, so one comparison
            # suffices; a 19-byte stamp's zero padding is exempt.
            if (
                (block - _STAMP_LOW[:width] <= _STAMP_SPAN[:width])
                | (block == 0)
            ).all():
                ts_us = (
                    block.view(f"S{width}").ravel()
                    .astype("datetime64[us]").view(np.int64)
                )
                if ts_us.min() >= _YEAR_ONE_US:
                    return ts_us
        return datetimes_to_us(
            list(map(datetime.fromisoformat, self.strings()))
        )

    def distinct(self) -> tuple[list[str], np.ndarray]:
        """The column's distinct values, each decoded once, and each
        row's index into them.

        Rows group by their zero-padded bytes read as 8-byte words,
        folded into one key; a key shared by different bytes (a
        collision) regroups the rows by the bytes themselves.  A
        column with a field too long to gather groups its strings.
        """
        lengths = self.lengths
        width = -(-max(int(lengths.max()), 1) // 8) * 8
        if not self.fits(width):
            index: dict[str, int] = {}
            codes = np.fromiter(
                (index.setdefault(text, len(index))
                 for text in self.strings()),
                dtype=np.int64, count=len(lengths),
            )
            return list(index), codes
        block = self.block(width)
        words = block.view(np.uint64)
        key = words[:, 0].copy()
        for word in words.T[1:]:
            key *= _WORD_MIX
            key += word
        _, codes = np.unique(key, return_inverse=True)
        first = np.empty(codes.max() + 1, dtype=np.int64)
        first[codes] = np.arange(len(codes))  # a row of each value
        if words.shape[1] > 1 and (words != words[first[codes]]).any():
            _, first, codes = np.unique(
                block.view(f"S{width}").ravel(),
                return_index=True, return_inverse=True,
            )
        return self.strings(first), codes


def _recode(codes: np.ndarray, values: list[str], table) -> np.ndarray:
    """``codes`` into ``values`` as positions in ``table`` (which holds
    every value)."""
    position = {value: code for code, value in enumerate(table)}
    return np.array(
        [position[value] for value in values], dtype=np.int32
    )[codes]


def _preview(row: dict) -> str:
    """Compact raw-ish preview of a parsed csv row."""
    return ",".join(
        "" if value is None else str(value)
        for value in row.values()
    )
