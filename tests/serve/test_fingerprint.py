"""The fingerprint of a lazy log equals the record-based one.

A log read column-wise (the CSV reader, the store, or a mask filter of
either) is fingerprinted from its columns without building records;
these tests hold it to :func:`tests.serve.oracles.fingerprint_oracle`
over the same log's records, and check that building the records
afterwards does not change it.
"""

from __future__ import annotations

import http.client
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.payloads import PAYLOADS
from repro.core.records import FailureLog, FailureRecord
from repro.core.taxonomy import root_loci_names
from repro.io import read_csv, write_csv
from repro.serve import (
    DatasetRegistry,
    ReproApp,
    fingerprint_log,
    run_in_thread,
)
from repro.store import ingest_log, open_store
from repro.synth import GeneratorConfig, generate_log
from tests.serve.oracles import fingerprint_oracle

_CATEGORIES = ["GPU", "CPU", "Memory", "Software", "SXM2-Board", "Lustre"]
_ORIGINS = [
    datetime(2017, 8, 1),
    datetime(1969, 12, 31, 23, 0, 0, 250_000),  # straddles the epoch
    datetime(1955, 3, 1),
    datetime(999, 1, 1),
]


@st.composite
def _logs(draw) -> FailureLog:
    """A Tsubame-3 log with sub-second, whole-second and (for some
    origins) pre-1970 stamps, multi-slot GPU lists and root loci."""
    origin = draw(st.sampled_from(_ORIGINS))
    n = draw(st.integers(min_value=1, max_value=25))
    records = []
    for index in range(n):
        category = draw(st.sampled_from(_CATEGORIES))
        micros = draw(
            st.one_of(
                st.integers(0, 900 * 3_600_000_000),
                st.integers(0, 900 * 3600).map(lambda s: s * 1_000_000),
            )
        )
        gpus: tuple[int, ...] = ()
        if category == "GPU":
            gpus = tuple(draw(st.sets(st.integers(0, 3), max_size=4)))
        locus = None
        if category == "Software":
            locus = draw(st.sampled_from((None, *root_loci_names())))
        records.append(
            FailureRecord(
                record_id=draw(st.integers(0, 10**12)) * 100 + index,
                timestamp=origin + timedelta(microseconds=micros),
                node_id=draw(st.integers(0, 539)),
                category=category,
                ttr_hours=draw(
                    st.one_of(
                        st.floats(0.0, 1e6, allow_nan=False),
                        st.integers(0, 500).map(float),
                    )
                ),
                gpus_involved=gpus,
                root_locus=locus,
            )
        )
    return FailureLog(
        machine="tsubame3",
        records=tuple(records),
        window_start=origin,
        window_end=origin + timedelta(hours=1000),
    )


def _assert_fingerprints_agree(lazy: FailureLog, oracle: str) -> None:
    assert lazy._lazy
    assert fingerprint_log(lazy) == oracle
    assert lazy._lazy, "fingerprinting built the records"
    list(lazy)
    assert not lazy._lazy
    assert fingerprint_log(lazy) == oracle


class TestLazyFingerprint:
    @given(log=_logs())
    @settings(max_examples=60, deadline=None)
    def test_csv_lazy_log_matches_the_oracle(self, log):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            write_csv(log, path)
            lazy = read_csv(path)
        _assert_fingerprints_agree(lazy, fingerprint_oracle(log))

    @given(log=_logs(), category=st.sampled_from(_CATEGORIES))
    @settings(max_examples=30, deadline=None)
    def test_lazy_sub_log_matches_the_oracle(self, log, category):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            write_csv(log, path)
            lazy = read_csv(path).by_category(category)
        expected = fingerprint_oracle(log.by_category(category))
        _assert_fingerprints_agree(lazy, expected)

    def test_store_lazy_log_matches_the_oracle(self, tmp_path):
        log = generate_log(
            "tsubame3", config=GeneratorConfig(seed=5, num_failures=300)
        )
        ingest_log(tmp_path / "store", log)
        lazy = open_store(tmp_path / "store").log()
        _assert_fingerprints_agree(lazy, fingerprint_oracle(log))

    @pytest.mark.parametrize("machine", ["tsubame2", "tsubame3"])
    def test_calibrated_logs(self, tmp_path, machine):
        log = generate_log(machine, seed=42)
        write_csv(log, tmp_path / "log.csv")
        lazy = read_csv(tmp_path / "log.csv")
        assert fingerprint_log(log) == fingerprint_oracle(log)
        _assert_fingerprints_agree(lazy, fingerprint_oracle(log))


def test_uploaded_csv_log_stays_lazy_through_cold_analyses(tmp_path):
    """``POST /datasets`` then one cold ``/analyze`` of each payload
    never builds a record of the uploaded log."""
    log = generate_log(
        "tsubame2", config=GeneratorConfig(seed=9, num_failures=200)
    )
    write_csv(log, tmp_path / "up.csv")
    app = ReproApp(DatasetRegistry(), workers=1)
    with run_in_thread(app) as handle:
        conn = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=60
        )
        try:
            conn.request(
                "POST", "/datasets/up?format=csv",
                (tmp_path / "up.csv").read_bytes(),
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 201
            for analysis in PAYLOADS:
                conn.request("GET", f"/analyze/up/{analysis}")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.getheader("X-Cache") == "miss"
        finally:
            conn.close()
        dataset = app.registry.get("up")
    assert dataset.fingerprint == fingerprint_oracle(log)
    assert dataset.log._lazy
