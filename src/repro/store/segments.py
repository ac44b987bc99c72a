"""Immutable on-disk columnar segments.

A segment is one append's worth of failure records, laid out as
aligned NumPy column arrays in a single file so a reader can
memory-map it and hand out zero-copy views — a million-record log
never has to be fully loaded to answer a column query.

Layout::

    offset 0   magic  b"RPRSEG01"
    offset 8   u64    header JSON length
    offset 16  bytes  header JSON (schema version, rows, column table,
                      category/locus string tables, min/max stamps)
    ...        pad    zeros to the next 64-byte boundary
    ...        data   one 64-aligned block per column
    tail       footer b"RPRSEGFT" + u64 data_end + sha256(file[0:data_end])

The footer is written last: a torn write (crash, full disk, chaos
injection) leaves a file whose footer is missing, misplaced, or whose
digest disagrees with the bytes — all three are detected by
:func:`open_segment` and surfaced as :class:`StoreCorruptError`, which
is what lets manifest recovery drop a torn tail segment instead of
silently returning bad rows.

Columns (dtypes are fixed by ``SCHEMA_VERSION``)::

    record_id    <i8   stable id, unique within the store
    ts_us        <i8   microseconds since the Unix epoch (naive local,
                       exact for datetime's microsecond resolution)
    node_id      <i8
    ttr_hours    <f8
    category     <i4   code into the segment's category_table
    locus        <i4   code into locus_table, -1 when absent
    month        i1    calendar month of the timestamp (1..12)
    weekday      i1    0 = Monday .. 6 = Sunday
    hour         i1    0..23
    slot_offsets <i8   CSR offsets of GPU slot involvement (rows + 1)
    slot_values  <i4   CSR values (concatenated GPU slot indices)
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.columns import datetimes_to_us, us_to_datetime
from repro.errors import StoreCorruptError, StoreError

__all__ = [
    "SCHEMA_VERSION",
    "COLUMN_DTYPES",
    "Segment",
    "write_segment",
    "open_segment",
    "datetimes_to_us",
    "us_to_datetime",
]

SCHEMA_VERSION = 1

_MAGIC = b"RPRSEG01"
_FOOTER_MAGIC = b"RPRSEGFT"
_ALIGN = 64
_FOOTER_LEN = len(_FOOTER_MAGIC) + 8 + 32

#: Column name -> canonical little-endian dtype string.
COLUMN_DTYPES: dict[str, str] = {
    "record_id": "<i8",
    "ts_us": "<i8",
    "node_id": "<i8",
    "ttr_hours": "<f8",
    "category": "<i4",
    "locus": "<i4",
    "month": "i1",
    "weekday": "i1",
    "hour": "i1",
    "slot_offsets": "<i8",
    "slot_values": "<i4",
}

def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class Segment:
    """One opened segment: zero-copy column arrays over an mmap.

    The arrays are read-only views into ``_buffer`` (the mmap'd file).
    NumPy's base-chain keeps the mapping alive for as long as any view
    — or any array derived from a view — exists, so handing a column
    to a caller that outlives this object is safe.
    """

    path: Path
    rows: int
    category_table: tuple[str, ...]
    locus_table: tuple[str, ...]
    min_ts_us: int
    max_ts_us: int
    min_record_id: int
    max_record_id: int
    #: The footer's SHA-256 of the data region, as hex.
    digest: str
    columns: dict[str, np.ndarray]
    _buffer: np.ndarray | None

    def __len__(self) -> int:
        return self.rows

    def col(self, name: str) -> np.ndarray:
        """One column array (read-only, mmap-backed)."""
        return self.columns[name]


def _column_lengths(rows: int, slots: int) -> dict[str, int]:
    """Element count per column for a segment of ``rows`` records."""
    lengths = {name: rows for name in COLUMN_DTYPES}
    lengths["slot_offsets"] = rows + 1
    lengths["slot_values"] = slots
    return lengths


def write_segment(
    path: str | Path,
    columns: dict[str, np.ndarray],
    category_table: tuple[str, ...],
    locus_table: tuple[str, ...],
) -> dict:
    """Write one immutable segment file; returns its manifest entry.

    ``columns`` must contain every key of :data:`COLUMN_DTYPES`; each
    array is cast to the canonical dtype.  The file is fsync'd before
    returning, so once the caller commits the manifest that names this
    segment, the data it points at is durable.

    Raises:
        StoreError: On a missing/extra column or length mismatch.
    """
    path = Path(path)
    missing = set(COLUMN_DTYPES) - set(columns)
    extra = set(columns) - set(COLUMN_DTYPES)
    if missing or extra:
        raise StoreError(
            f"segment columns mismatch: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}"
        )
    rows = int(columns["record_id"].shape[0])
    slots = int(columns["slot_values"].shape[0])
    expected = _column_lengths(rows, slots)
    arrays: dict[str, np.ndarray] = {}
    for name, dtype in COLUMN_DTYPES.items():
        array = np.ascontiguousarray(columns[name], dtype=np.dtype(dtype))
        if array.ndim != 1 or array.shape[0] != expected[name]:
            raise StoreError(
                f"segment column {name!r} has shape {array.shape}, "
                f"expected ({expected[name]},)"
            )
        arrays[name] = array

    ts = arrays["ts_us"]
    ids = arrays["record_id"]
    column_meta = []
    # Lay out the data region: header first, then 64-aligned columns.
    header = {
        "schema_version": SCHEMA_VERSION,
        "rows": rows,
        "category_table": list(category_table),
        "locus_table": list(locus_table),
        "min_ts_us": int(ts.min()) if rows else 0,
        "max_ts_us": int(ts.max()) if rows else 0,
        "min_record_id": int(ids.min()) if rows else 0,
        "max_record_id": int(ids.max()) if rows else 0,
        "columns": column_meta,
    }
    # Two passes: the header length depends on the column offsets,
    # which depend on the header length.  Fix the header size by
    # computing offsets against a placeholder, then re-rendering —
    # padding the JSON to its own measured length keeps it stable.
    placeholder = dict(header)
    placeholder["columns"] = [
        {"name": name, "dtype": COLUMN_DTYPES[name],
         "offset": 2 ** 60, "nbytes": arrays[name].nbytes}
        for name in COLUMN_DTYPES
    ]
    header_len = len(json.dumps(placeholder).encode("utf-8"))
    data_start = _aligned(16 + header_len)
    offset = data_start
    for name in COLUMN_DTYPES:
        offset = _aligned(offset)
        column_meta.append(
            {
                "name": name,
                "dtype": COLUMN_DTYPES[name],
                "offset": offset,
                "nbytes": arrays[name].nbytes,
            }
        )
        offset += arrays[name].nbytes
    data_end = offset
    header_bytes = json.dumps(header).encode("utf-8")
    # Offsets rendered shorter than the 2**60 placeholder: pad with
    # spaces (valid JSON whitespace) so the measured length holds.
    header_bytes += b" " * (header_len - len(header_bytes))

    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        def emit(chunk: bytes) -> None:
            digest.update(chunk)
            handle.write(chunk)

        emit(_MAGIC)
        emit(len(header_bytes).to_bytes(8, "little"))
        emit(header_bytes)
        position = 16 + len(header_bytes)
        for meta in column_meta:
            pad = meta["offset"] - position
            emit(b"\x00" * pad)
            emit(arrays[meta["name"]].tobytes())
            position = meta["offset"] + meta["nbytes"]
        handle.write(_FOOTER_MAGIC)
        handle.write(data_end.to_bytes(8, "little"))
        handle.write(digest.digest())
        handle.flush()
        os.fsync(handle.fileno())
    return {
        "file": path.name,
        "rows": rows,
        "nbytes": data_end + _FOOTER_LEN,
        "sha256": digest.hexdigest(),
        "min_ts_us": header["min_ts_us"],
        "max_ts_us": header["max_ts_us"],
        "min_record_id": header["min_record_id"],
        "max_record_id": header["max_record_id"],
    }


def open_segment(path: str | Path, verify: bool = True) -> Segment:
    """Open a segment as zero-copy read-only views over an mmap.

    Args:
        path: Segment file path.
        verify: Recompute the SHA-256 over the data region and compare
            it to the footer digest.  Structural checks (magic, sizes,
            footer placement) always run; the digest pass costs one
            sequential read and is what crash-recovery uses to decide
            whether a tail segment is torn.

    Raises:
        StoreCorruptError: On any structural or checksum failure.
    """
    path = Path(path)
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            mapping = (
                mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
                if size >= 16 + _FOOTER_LEN else None
            )
        finally:
            os.close(fd)
    except OSError as exc:
        raise StoreCorruptError(f"segment {path} unreadable: {exc}") from exc
    if mapping is None:
        raise StoreCorruptError(
            f"segment {path} too short ({size} bytes) to hold a "
            f"header and footer"
        )
    if mapping[:8] != _MAGIC:
        raise StoreCorruptError(f"segment {path} has a bad magic number")
    header_len = int.from_bytes(mapping[8:16], "little")
    if 16 + header_len + _FOOTER_LEN > size:
        raise StoreCorruptError(
            f"segment {path} header length {header_len} exceeds the file"
        )
    try:
        header = json.loads(mapping[16:16 + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(
            f"segment {path} header is not valid JSON: {exc}"
        ) from exc
    if header.get("schema_version") != SCHEMA_VERSION:
        raise StoreCorruptError(
            f"segment {path} has schema version "
            f"{header.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    footer = mapping[size - _FOOTER_LEN:]
    if footer[:8] != _FOOTER_MAGIC:
        raise StoreCorruptError(
            f"segment {path} footer magic missing (torn write)"
        )
    data_end = int.from_bytes(footer[8:16], "little")
    if data_end != size - _FOOTER_LEN:
        raise StoreCorruptError(
            f"segment {path} footer places data end at {data_end} but "
            f"the file has {size - _FOOTER_LEN} data bytes"
        )
    # A plain array over the mapping: slicing it skips np.memmap's
    # per-view bookkeeping, and the base chain still pins the mapping.
    buffer = np.frombuffer(mapping, dtype=np.uint8)
    if verify:
        digest = hashlib.sha256(buffer[:data_end]).digest()
        if digest != footer[16:]:
            raise StoreCorruptError(
                f"segment {path} checksum mismatch (corrupted data)"
            )

    rows = int(header["rows"])
    columns: dict[str, np.ndarray] = {}
    for meta in header["columns"]:
        name = meta["name"]
        dtype = np.dtype(meta["dtype"])
        start, nbytes = int(meta["offset"]), int(meta["nbytes"])
        if start + nbytes > data_end:
            raise StoreCorruptError(
                f"segment {path} column {name!r} extends past the "
                f"data region"
            )
        # Read-only, as the mapping is.
        array = buffer[start:start + nbytes].view(dtype)
        columns[name] = array
    expected = _column_lengths(
        rows, int(columns["slot_values"].shape[0])
    )
    for name, array in columns.items():
        if array.shape[0] != expected[name]:
            raise StoreCorruptError(
                f"segment {path} column {name!r} has "
                f"{array.shape[0]} elements, expected {expected[name]}"
            )
    return Segment(
        path=path,
        rows=rows,
        category_table=tuple(header["category_table"]),
        locus_table=tuple(header["locus_table"]),
        min_ts_us=int(header["min_ts_us"]),
        max_ts_us=int(header["max_ts_us"]),
        min_record_id=int(header["min_record_id"]),
        max_record_id=int(header["max_record_id"]),
        digest=footer[16:].hex(),
        columns=columns,
        _buffer=buffer,
    )
