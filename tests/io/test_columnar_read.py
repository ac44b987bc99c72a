"""Differential tests: the columnar ``read_csv`` against the row oracle.

Every file is read by both readers, in every ``on_error`` mode.  Valid
files must give equal logs (records, ``repr`` of every TTR, and a
columnar view bit-identical to one built from the oracle's records);
invalid files must raise the same exception type with the same
message, or quarantine the same rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columns import build_columns
from repro.io import LogReadReport, read_csv, write_csv
from repro.synth import generate_log
from tests.io.oracles import read_csv_rows

META = (
    "# machine=tsubame3\n"
    "# window_start=2017-05-09T00:00:00\n"
    "# window_end=2017-06-09T00:00:00\n"
)
HEADER = "record_id,timestamp,node_id,category,ttr_hours,gpus,root_locus"
ROWS = (
    "0,2017-05-10T18:02:04.869364,383,Software,21.260065896658286,,gpu_driver",
    "1,2017-05-10T18:19:44,504,Lustre,19.07268050766672,,",
    "2,2017-05-10T23:35:15.756326,367,GPU,154.1861262112538,3,",
    "3,2017-05-11T00:16:10,198,Software,0.1,,",
    "4,2017-05-11T00:16:10,12,SXM2-Board,-0.0,0+1+3,",
    "5,2017-05-12T07:00:00,12,GPU,1e-300,2+3,",
)


def _body(*rows: str, header: str = HEADER, meta: str = META) -> str:
    return meta + header + "\n" + "".join(row + "\n" for row in rows)


def _swap(index: int, column: int, value: str) -> tuple[str, ...]:
    """The base rows with one field of row ``index`` replaced."""
    rows = list(ROWS)
    fields = rows[index].split(",")
    fields[column] = value
    rows[index] = ",".join(fields)
    return tuple(rows)


VALID = {
    "base": _body(*ROWS),
    "unsorted_rows": _body(*reversed(ROWS)),
    "tied_stamps_unsorted_ids": _body(ROWS[0], ROWS[1], ROWS[2],
                                      ROWS[4], ROWS[3], ROWS[5]),
    "unsorted_gpus": _body(*_swap(4, 5, "3+0+1")),
    "whitespace_gpus": _body(*_swap(1, 5, "  ")),
    "reordered_header": META
    + "category,root_locus,gpus,ttr_hours,node_id,timestamp,record_id\n"
    + "".join(
        ",".join(np.asarray(row.split(","))[[3, 6, 5, 4, 2, 1, 0]]) + "\n"
        for row in ROWS
    ),
    "extra_header_column": _body(
        *(row + ",note" for row in ROWS), header=HEADER + ",comment"
    ),
    "quoted_fields": _body(
        *(
            ",".join(f'"{field}"' for field in row.split(","))
            for row in ROWS
        )
    ),
    "crlf": _body(*ROWS).replace("\n", "\r\n"),
    "inf_ttr": _body(*_swap(1, 4, "inf")),
    "space_padded_int": _body(*_swap(1, 2, " 504 ")),
    "header_only": _body(),
    # Valid for the row reader, though ragged or duplicated columns
    # would be dropped or overwritten by its DictReader.
    "extra_column": _body(*ROWS[:2], ROWS[2] + ",surplus", *ROWS[3:]),
    "duplicate_header": _body(
        *(row + ",9" for row in ROWS), header=HEADER + ",node_id"
    ),
    "blank_line": _body(*ROWS[:3], "", *ROWS[3:]),
    "bare_cr_line_ends": _body(*ROWS).replace("\n", "\r"),
    "nul_in_locus": _body(*_swap(0, 6, "gpu\0driver")),
}

#: Valid files the columnar path hands to the row reader, which then
#: builds the records eagerly.
ROW_PATH = {
    "unsorted_gpus", "header_only", "extra_column", "duplicate_header",
    "blank_line", "quoted_fields", "bare_cr_line_ends", "nul_in_locus",
}

INVALID = {
    "bad_int": _body(*_swap(2, 2, "node7")),
    "bad_id": _body(*_swap(2, 0, "2.0")),
    "bad_float": _body(*_swap(2, 4, "fast")),
    "bad_timestamp": _body(*_swap(2, 1, "not-a-time")),
    "bad_gpus": _body(*_swap(2, 5, "1+x")),
    "short_row": _body(*ROWS[:2], "2,2017-05-10T23:35:15,367,GPU", *ROWS[3:]),
    "negative_id": _body(*_swap(2, 0, "-2")),
    "negative_node": _body(*_swap(2, 2, "-1")),
    "negative_ttr": _body(*_swap(2, 4, "-0.5")),
    "nan_ttr": _body(*_swap(2, 4, "nan")),
    "negative_gpu": _body(*_swap(2, 5, "-1+2")),
    "duplicate_gpu": _body(*_swap(2, 5, "2+2")),
    "empty_category": _body(*_swap(2, 3, "")),
    "unknown_category": _body(*_swap(2, 3, "Toaster")),
    "duplicate_id": _body(*_swap(3, 0, "1")),
    "out_of_window": _body(*_swap(5, 1, "2018-01-01T00:00:00")),
    "before_window": _body(*_swap(0, 1, "2017-05-08T23:59:59")),
    "tz_aware_stamp": _body(*_swap(2, 1, "2017-05-10T23:35:15+09:00")),
    "tz_aware_window": _body(
        *ROWS, meta=META.replace("T00:00:00\n", "T00:00:00+00:00\n", 1)
    ),
    "bad_window": _body(*ROWS, meta=META.replace("2017-06-09", "soon")),
    "inverted_window": _body(
        *ROWS, meta=META.replace("2017-06-09", "2017-05-01")
    ),
    "unknown_machine": _body(*ROWS, meta=META.replace("tsubame3", "zx81")),
    "missing_column": META
    + HEADER.replace(",root_locus", "")
    + "\n"
    + "".join(row.rsplit(",", 1)[0] + "\n" for row in ROWS),
    "over_field_size_limit": _body(*_swap(0, 6, "x" * 200_000)),
    "two_errors": _body(*_swap(1, 4, "nan")[:3], *_swap(4, 3, "")[3:]),
}


#: Row 2's timestamp replaced by a stamp at the edge of the two shapes
#: the columnar reader hands to numpy.  numpy accepts several of these
#: that ``fromisoformat`` rejects or reads differently, so each file
#: must read, or fail, exactly as the row oracle does.
STAMP_EDGES = {
    name: _body(*_swap(2, 1, stamp))
    for name, stamp in {
        "zulu_suffix": "2017-05-10T23:35:15Z",
        "offset_suffix": "2017-05-10T23:35:15+09:00",
        "space_separator": "2017-05-10 23:35:15",
        "date_only": "2017-05-10",
        "year_month": "2017-05",
        "nat": "NaT",
        "today": "today",
        "year_zero": "0000-01-01T00:00:00",
        "seven_digit_fraction": "2017-05-10T23:35:15.1234567",
        "leap_second": "2017-05-10T23:59:60",
        "not_a_leap_day": "2011-02-29T00:00:00",
        "non_ascii_digit": "2017-05-1\u0663T23:35:15",
    }.items()
}
#: Files whose stamps all have one of the two shapes (the base rows
#: mix them), each checked by its own branch of the shape check.
STAMP_EDGES["whole_seconds_only"] = _body(
    *(
        ",".join([fields[0], fields[1][:19], *fields[2:]])
        for fields in (row.split(",") for row in ROWS)
    )
)
STAMP_EDGES["fractions_only"] = _body(
    *(
        ",".join(
            [fields[0], fields[1][:19] + ".000001", *fields[2:]]
        )
        for fields in (row.split(",") for row in ROWS)
    )
)


def _outcome(read, path, on_error):
    try:
        result = read(path, on_error=on_error)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc), str(exc))
    quarantined = ()
    if isinstance(result, LogReadReport):
        result, quarantined = result.log, result.quarantined
    return (
        "read",
        result.machine,
        result.window_start,
        result.window_end,
        result.records,
        [repr(record.ttr_hours) for record in result.records],
        quarantined,
    )


def _assert_same_view(actual, expected):
    assert actual.machine == expected.machine
    assert actual.category_names == expected.category_names
    assert actual.taxonomy_complete == expected.taxonomy_complete
    assert actual.locus_names == expected.locus_names
    for name, array in vars(expected).items():
        if isinstance(array, np.ndarray):
            other = getattr(actual, name)
            assert other.dtype == array.dtype, name
            assert np.array_equal(other, array), name


@pytest.mark.parametrize("on_error", ["raise", "skip", "collect"])
@pytest.mark.parametrize("name", sorted(VALID) + sorted(INVALID))
def test_matches_row_oracle(tmp_path, name, on_error):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(({**VALID, **INVALID}[name]).encode())
    assert _outcome(read_csv, path, on_error) == _outcome(
        read_csv_rows, path, on_error
    )


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_files_read(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(VALID[name].encode())
    log = read_csv(path)
    assert ("records" in log.__dict__) == (name in ROW_PATH)
    # The view the columnar path built is the one the records imply.
    _assert_same_view(log.columns, build_columns(read_csv_rows(path)))


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_files_raise(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(INVALID[name].encode())
    with pytest.raises(Exception):
        read_csv_rows(path)


def test_clean_file_reads_lazily(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text(VALID["base"])
    log = read_csv(path)
    assert "records" not in log.__dict__
    assert len(log) == len(ROWS)
    assert log.categories() == ["GPU", "Lustre", "SXM2-Board", "Software"]
    assert log.node_ids() == [12, 198, 367, 383, 504]
    assert "records" not in log.__dict__
    assert log.records == read_csv_rows(path).records
    assert "records" in log.__dict__


@pytest.mark.parametrize("machine", ["tsubame2", "tsubame3"])
def test_calibrated_round_trip(tmp_path, machine):
    original = generate_log(machine, seed=11)
    path = tmp_path / f"{machine}.csv"
    write_csv(original, path)
    log = read_csv(path)
    assert "records" not in log.__dict__
    _assert_same_view(log.columns, build_columns(original))
    assert log == original
    assert [repr(r.ttr_hours) for r in log] == [
        repr(r.ttr_hours) for r in original
    ]
    assert _outcome(read_csv, path, "raise") == _outcome(
        read_csv_rows, path, "raise"
    )


@pytest.mark.parametrize("on_error", ["raise", "skip", "collect"])
@pytest.mark.parametrize("name", sorted(STAMP_EDGES))
def test_timestamp_edges_match_row_oracle(tmp_path, name, on_error):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(STAMP_EDGES[name].encode())
    expected = _outcome(read_csv_rows, path, on_error)
    assert _outcome(read_csv, path, on_error) == expected
    if expected[0] == "read" and on_error == "raise":
        _assert_same_view(read_csv(path).columns,
                          build_columns(read_csv_rows(path)))
