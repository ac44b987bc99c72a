"""Row-by-row CSV reader, kept as the oracle for the columnar reader.

``read_csv_rows`` is the reader ``repro.io.read_csv`` used before it
parsed column-wise: one ``DictReader`` dict, one preview string and one
validated ``FailureRecord`` per row, then a validating ``FailureLog``.
The differential tests hold ``read_csv`` to it: equal logs on valid
files, the same exception type and message on invalid ones.
"""

from __future__ import annotations

import csv
from datetime import datetime
from pathlib import Path

from repro.core.records import FailureLog, FailureRecord
from repro.errors import SerializationError, ValidationError
from repro.io.schema import record_from_row
from repro.io.tolerant import LogReadReport, RowQuarantine, sift_records

_META_PREFIX = "#"


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


def _preview(row: dict) -> str:
    return ",".join(
        "" if value is None else str(value)
        for value in row.values()
    )


def read_csv_rows(
    path: str | Path, on_error: str = "raise"
) -> FailureLog | LogReadReport:
    """Read a CSV failure log one validated record per row."""
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
        reader = csv.DictReader(handle)
        rows: list[tuple[int, str | None, FailureRecord]] = []
        for row in reader:
            line_number = len(meta_lines) + reader.line_num
            try:
                rows.append(
                    (line_number, _preview(row), record_from_row(row))
                )
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
            quarantine,
        )
    else:
        records = [record for _, _, record in rows]
    log = FailureLog(
        machine=metadata["machine"],
        records=tuple(records),
        window_start=window_start,
        window_end=window_end,
    )
    if on_error == "collect":
        return quarantine.report(log, format="csv")
    return log
