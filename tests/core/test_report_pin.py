"""Byte-identity pin for the report and the ``/analyze`` payloads.

The logs are the end-to-end ``analyze`` workload's inputs: the seed-0
Tsubame-2 log tiled 30 times along the time axis and the seed-0
Tsubame-3 log, each written to CSV and read back.  The hashes were
recorded from the per-category sub-log kernels, before the analysis
layer grouped each log in one pass; any change to a number, or to how
one is formatted, changes them.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.payloads import PAYLOADS
from repro.core.records import FailureLog
from repro.core.report import full_report
from repro.io import read_csv, write_csv
from repro.serve.http import json_body
from repro.synth import generate_log

REPORT_SHA256 = (
    "fe4e8dc3f86dcbb655bb3a4e8de19b2d8ec616de3592124c1056a1d8c1fafa60"
)
PAYLOADS_SHA256 = (
    "60d6fe82c9498e71ea925ae59921b8ddadca0e741be06425953c59e68cca32d8"
)
T2_COPIES = 30


def _tiled(base: FailureLog, copies: int) -> FailureLog:
    span = base.window_end - base.window_start
    return FailureLog(
        machine=base.machine,
        records=tuple(
            dataclasses.replace(
                record,
                record_id=copy * len(base) + index,
                timestamp=record.timestamp + span * copy,
            )
            for copy in range(copies)
            for index, record in enumerate(base.records)
        ),
        window_start=base.window_start,
        window_end=base.window_start + span * copies,
    )


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pin")
    built = (
        _tiled(generate_log("tsubame2", seed=0), T2_COPIES),
        generate_log("tsubame3", seed=0),
    )
    read = []
    for log in built:
        path = directory / f"{log.machine}.csv"
        write_csv(log, path)
        read.append(read_csv(path))
    return {"built": built, "read": tuple(read)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("source", ["built", "read"])
def test_full_report_bytes(logs, source):
    t2, t3 = logs[source]
    assert _sha256(full_report(t2, t3).encode()) == REPORT_SHA256


@pytest.mark.parametrize("source", ["built", "read"])
def test_analyze_payload_bytes(logs, source):
    t2, _ = logs[source]
    payloads = {name: PAYLOADS[name](t2) for name in PAYLOADS}
    assert _sha256(json_body(payloads)) == PAYLOADS_SHA256
