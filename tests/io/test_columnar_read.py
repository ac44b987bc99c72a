"""Differential tests: the columnar ``read_csv`` against the row oracle.

Every file is read by both readers, in every ``on_error`` mode.  Valid
files must give equal logs (records, ``repr`` of every TTR, and a
columnar view bit-identical to one built from the oracle's records);
invalid files must raise the same exception type with the same
message, or quarantine the same rows.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import build_columns
from repro.io import LogReadReport, csvio, read_csv, write_csv
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


#: Rows enough to push a file past 8 KiB, valid after the base rows.
_FILLER = tuple(
    f"{index},2017-05-13T00:00:{index % 60:02d},{index},GPU,1.5,0,"
    for index in range(6, 306)
)

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
    # Fields at the edges of the numpy paths' shapes, each read as
    # int() or float() reads it.
    "signed_id": _body(*_swap(5, 0, "+5")),
    "zero_padded_id": _body(*_swap(3, 0, "007")),
    "underscored_node": _body(*_swap(1, 2, "1_000")),
    "id_19_digits": _body(*_swap(2, 0, "1000000000000000000")),
    "id_overflows_int64": _body(*_swap(2, 0, "9999999999999999999")),
    "id_20_digits": _body(*_swap(2, 0, "20000000000000000000")),
    "gpu_slot_beyond_int32": _body(*_swap(2, 5, "3000000000")),
    "space_padded_ttr": _body(*_swap(1, 4, " 0.5 ")),
    # Digits and spaces float() and int() read in text but not in
    # bytes: these columns go through str.
    "unicode_space_ttr": _body(*_swap(1, 4, "\u20030.5")),
    "non_ascii_digit_ttr": _body(*_swap(1, 4, "\u0663.5")),
    "non_ascii_digit_node": _body(*_swap(1, 2, "\u0665\u0660\u0664")),
    "mixed_line_ends": META + HEADER + "\r\n" + "".join(
        row + ("\r\n" if index % 2 else "\n")
        for index, row in enumerate(ROWS)
    ),
    "no_final_newline": _body(*ROWS).removesuffix("\n"),
    "crlf_no_final_newline": _body(*ROWS).replace("\n", "\r\n")[:-2],
    "non_ascii_locus": _body(*_swap(0, 6, "gpu_tr\u00e4iber\u2603")),
    # A CR ending the last line reads as that line's end.
    "cr_ends_body": _body(*ROWS).removesuffix("\n") + "\r",
}

#: Valid files the columnar path hands to the row reader, which then
#: builds the records eagerly.
ROW_PATH = {
    "unsorted_gpus", "header_only", "extra_column", "duplicate_header",
    "blank_line", "quoted_fields", "bare_cr_line_ends", "nul_in_locus",
    # Values the view's int64 ids or int32 slots cannot hold: only the
    # records can carry them.
    "id_overflows_int64", "id_20_digits", "gpu_slot_beyond_int32",
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
    # A bare CR ends csv.reader's line mid-field.
    "bare_cr_in_field": _body(*_swap(0, 6, "gpu\rdriver")),
    # Not printable ASCII, so float() reads the field's text (and
    # rejects it, as the row reader does).
    "separator_padded_ttr": _body(*_swap(1, 4, "\x1f0.5")),
    # An invalid UTF-8 byte past the text reader's first 8 KiB chunk,
    # so the metadata decodes and the error comes from the body: in
    # the locus column, and in a column the columnar path never
    # converts.
    "invalid_utf8_locus": _body(
        *ROWS[:5], *_FILLER, _swap(5, 6, "\udcff")[5]
    ).encode("utf-8", "surrogateescape"),
    "invalid_utf8_extra_column": _body(
        *(row + ",note" for row in (*ROWS[:5], *_FILLER)),
        ROWS[5] + ",n\udcffte",
        header=HEADER + ",comment",
    ).encode("utf-8", "surrogateescape"),
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


def _write(path, content: str | bytes):
    path.write_bytes(
        content.encode() if isinstance(content, str) else content
    )


@pytest.mark.parametrize("on_error", ["raise", "skip", "collect"])
@pytest.mark.parametrize("name", sorted(VALID) + sorted(INVALID))
def test_matches_row_oracle(tmp_path, name, on_error):
    path = tmp_path / f"{name}.csv"
    _write(path, {**VALID, **INVALID}[name])
    assert _outcome(read_csv, path, on_error) == _outcome(
        read_csv_rows, path, on_error
    )


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_files_read(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    _write(path, VALID[name])
    log = read_csv(path)
    assert ("records" in log.__dict__) == (name in ROW_PATH)
    try:
        expected = build_columns(read_csv_rows(path))
    except OverflowError:  # a value beyond the view's dtypes: no view
        with pytest.raises(OverflowError):
            log.columns
        return
    # The view the columnar path built is the one the records imply.
    _assert_same_view(log.columns, expected)


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_files_raise(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    _write(path, INVALID[name])
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


def test_long_fields_read_in_memory_of_the_body(tmp_path):
    """A long field leaves its column to the strings: gathering every
    row at that field's width would take rows x width bytes."""
    wide = 40_000
    rows = [
        f"{index},2017-05-13T00:00:{index % 60:02d},{index},GPU,1.5,0,"
        for index in range(6, 2006)
    ]
    rows[0] += "x" * wide  # a locus
    rows[1] = rows[1].replace(",1.5,", "," + " " * wide + "0.5,")
    path = tmp_path / "wide.csv"
    _write(path, _body(*ROWS, *rows))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        log = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "records" not in log.__dict__
    assert log.records == read_csv_rows(path).records
    # The reader's delimiter index arrays take several times the body;
    # one gathered block of a wide column would take ~500x it.
    assert peak < 16 * size, (peak, size)


def test_key_collision_regroups_by_bytes(tmp_path, monkeypatch):
    """Loci whose 8-byte words fold to one key still read apart."""
    # With a zero multiplier a key is a field's last word alone.
    monkeypatch.setattr(csvio, "_WORD_MIX", np.uint64(0))
    path = tmp_path / "collide.csv"
    _write(path, _body(*_swap(1, 6, "fan_driver")))
    log = read_csv(path)
    assert "records" not in log.__dict__
    assert log.records == read_csv_rows(path).records
    assert {r.root_locus for r in log} == {"fan_driver", "gpu_driver", None}


def test_body_of_a_non_utf8_text_handle_is_re_encoded(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"# machine=tsubame3\n" + HEADER.encode() + b"\n0,\xe9\n")
    with path.open(newline="", encoding="latin-1") as handle:
        meta = [handle.readline()]
        body = csvio._body_bytes(handle, meta)
    assert body == (HEADER + "\n0,\u00e9\n").encode()


def _converted(field):
    try:
        return repr(float(field))
    except ValueError as exc:
        return str(exc).split(":")[0]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
               max_size=12))
def test_printable_ascii_bytes_read_as_text(field):
    """The columnar reader hands float() the bytes of a TTR column of
    printable ASCII: it must read them as it reads the text."""
    assert _converted(field.encode()) == _converted(field)
