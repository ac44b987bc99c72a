"""The store facade: init, append invariants, reads, time travel."""

from __future__ import annotations

import dataclasses
import json
from datetime import timedelta, timezone

import pytest

from repro.core.records import FailureLog, FailureRecord
from repro.errors import MachineError, StoreCorruptError, StoreError
from repro.io import read_csv, write_csv
from repro.sim import ClusterSimulator
from repro.store import (
    FailureStore,
    ingest_log,
    init_store,
    open_store,
)
from repro.store.views import verify_parity
from repro.synth import GeneratorConfig, TraceGenerator
from repro.synth.profiles import profile_for
from tests.conftest import make_log, make_record
from tests.store.conftest import assert_log_roundtrip, split_log, sub_log


def _payload_bytes(store: FailureStore) -> bytes:
    return json.dumps(store.payloads(), sort_keys=True).encode()


def _late_records(log: FailureLog, n: int, start_id: int = 50_000):
    """``n`` fresh records strictly after ``log``'s last event."""
    last = log.records[-1]
    return [
        dataclasses.replace(
            last,
            record_id=start_id + i,
            timestamp=last.timestamp + timedelta(seconds=i + 1),
        )
        for i in range(n)
    ]


class TestInit:
    def test_init_then_open_empty(self, tmp_path):
        path = tmp_path / "s"
        store = init_store(path, "tsubame2")
        assert store.machine == "tsubame2"
        assert store.strict_taxonomy is True
        assert store.rows == 0
        assert store.watermark is None
        assert store.payloads() == {}
        reopened = open_store(path)
        assert reopened.rows == 0
        assert reopened.fingerprint == store.fingerprint
        with pytest.raises(StoreError, match="empty"):
            reopened.log()

    def test_double_init_rejected(self, tmp_path):
        init_store(tmp_path / "s", "tsubame2")
        with pytest.raises(StoreError, match="already holds a store"):
            init_store(tmp_path / "s", "tsubame2")

    def test_unknown_machine_rejected(self, tmp_path):
        with pytest.raises(MachineError):
            init_store(tmp_path / "s", "summit")
        # Validation happens before any filesystem writes.
        assert not (tmp_path / "s").exists()

    def test_half_window_rejected(self, tmp_path):
        log = make_log([make_record(0, 1.0)])
        with pytest.raises(StoreError, match="both"):
            init_store(
                tmp_path / "s", "tsubame2",
                window_start=log.window_start,
            )

    def test_inverted_window_rejected(self, tmp_path):
        log = make_log([make_record(0, 1.0)])
        with pytest.raises(StoreError, match="after"):
            init_store(
                tmp_path / "s", "tsubame2",
                window_start=log.window_end,
                window_end=log.window_start,
            )

    def test_open_non_store_directory(self, tmp_path):
        with pytest.raises(StoreCorruptError, match="no store manifest"):
            open_store(tmp_path)


class TestRoundTrip:
    def test_two_batch_append_is_bit_identical(self, stored, t3_small):
        path, store = stored
        assert store.rows == len(t3_small)
        assert_log_roundtrip(store.log(), t3_small)
        # A fresh process sees the same bytes.
        assert_log_roundtrip(open_store(path).log(), t3_small)

    def test_single_batch_equals_multi_batch(self, tmp_path, t3_small):
        one = init_store(
            tmp_path / "one", t3_small.machine,
            window_start=t3_small.window_start,
            window_end=t3_small.window_end,
        )
        one.append(t3_small)
        many = init_store(
            tmp_path / "many", t3_small.machine,
            window_start=t3_small.window_start,
            window_end=t3_small.window_end,
        )
        for batch in split_log(t3_small, 5):
            many.append(batch)
        assert_log_roundtrip(many.log(), one.log())
        assert _payload_bytes(many) == _payload_bytes(one)

    def test_raw_record_append_pads_window(self, tmp_path):
        records = [make_record(i, 10.0 + i) for i in range(4)]
        store = init_store(tmp_path / "s", "tsubame2")
        summary = store.append(records)
        assert summary["rows"] == 4
        log = store.log()
        pad = timedelta(hours=1)
        assert log.window_start == records[0].timestamp - pad
        assert log.window_end == records[-1].timestamp + pad

    def test_append_summary_shape(self, tmp_path, t2_small):
        store = init_store(
            tmp_path / "s", "tsubame2",
            window_start=t2_small.window_start,
            window_end=t2_small.window_end,
        )
        summary = store.append(t2_small)
        assert summary["rows"] == len(t2_small)
        assert summary["rows_total"] == len(t2_small)
        assert summary["segment"].startswith("seg-000000")
        assert summary["fingerprint"] == store.fingerprint

    def test_parity_with_cold_kernels(self, stored):
        _, store = stored
        payloads = store.payloads()
        assert set(payloads) == {
            "breakdown", "metrics", "spatial", "seasonal", "multigpu",
        }
        verify_parity(payloads, store.log())


class TestAppendInvariants:
    def test_non_monotone_batch_rejected(self, stored, t3_small):
        _, store = stored
        with pytest.raises(StoreError, match="not time-monotone"):
            store.append(sub_log(t3_small, 0, 5))

    def test_id_collision_rejected(self, tmp_path, t3_small):
        store = init_store(
            tmp_path / "s", t3_small.machine,
            window_start=t3_small.window_start,
            window_end=t3_small.window_end,
        )
        half = len(t3_small) // 2
        store.append(sub_log(t3_small, 0, half))
        # The second half, renumbered from zero: monotone in time but
        # every id collides with the committed first half.
        second = sub_log(t3_small, half, len(t3_small))
        renumbered = FailureLog(
            machine=second.machine,
            records=tuple(
                dataclasses.replace(r, record_id=i)
                for i, r in enumerate(second.records)
            ),
            window_start=second.window_start,
            window_end=second.window_end,
            _strict_taxonomy=second._strict_taxonomy,
        )
        with pytest.raises(StoreError, match="collides"):
            store.append(renumbered)

    def test_reindex_renumbers_sequentially(self, tmp_path, t2_small):
        store = init_store(
            tmp_path / "s", "tsubame2",
            window_start=t2_small.window_start,
            window_end=t2_small.window_end,
        )
        store.append(t2_small)
        last = max(r.record_id for r in t2_small.records)
        # Colliding ids (0..4) are renumbered after the committed tail.
        batch = _late_records(t2_small, 5, start_id=0)
        summary = store.append(batch, reindex=True)
        assert summary["rows"] == 5
        ids = [r.record_id for r in store.log().records[-5:]]
        assert ids == list(range(last + 1, last + 6))

    def test_machine_mismatch_rejected(self, tmp_path, t2_small):
        store = init_store(tmp_path / "s", "tsubame3")
        with pytest.raises(StoreError, match="tsubame3"):
            store.append(t2_small)

    def test_strictness_mismatch_rejected(self, tmp_path, t2_small):
        store = init_store(
            tmp_path / "s", "tsubame2", strict_taxonomy=False
        )
        with pytest.raises(StoreError, match="strictness"):
            store.append(t2_small)

    def test_empty_batch_rejected(self, tmp_path):
        store = init_store(tmp_path / "s", "tsubame2")
        with pytest.raises(StoreError, match="empty batch"):
            store.append([])

    def test_window_origin_is_fixed(self, stored, t3_small):
        _, store = stored
        # A monotone, non-colliding batch whose window starts one hour
        # late: rejected because the first append fixed the origin.
        late = dataclasses.replace(
            t3_small.records[-1],
            record_id=10_000,
            timestamp=t3_small.window_end - timedelta(microseconds=1),
        )
        shifted = FailureLog(
            machine=t3_small.machine,
            records=(late,),
            window_start=t3_small.window_start + timedelta(hours=1),
            window_end=t3_small.window_end,
            _strict_taxonomy=True,
        )
        with pytest.raises(StoreError, match="origin is fixed"):
            store.append(shifted)


class TestTzAwareBatches:
    """The store keeps naive microseconds: a tz-aware batch is refused
    with a StoreError before anything is written."""

    @staticmethod
    def _aware(records, every=1):
        return [
            dataclasses.replace(
                record, timestamp=record.timestamp.replace(tzinfo=timezone.utc)
            ) if index % every == 0 else record
            for index, record in enumerate(records)
        ]

    @pytest.mark.parametrize("every", [1, 3], ids=["all", "mixed"])
    def test_record_batch_rejected(self, tmp_path, t2_small, every):
        store = init_store(tmp_path / "s", "tsubame2")
        batch = self._aware(t2_small.records[:6], every)
        with pytest.raises(StoreError, match="naive timestamps"):
            store.append(batch, reindex=True)
        assert not list((tmp_path / "s").glob("seg-*"))
        assert open_store(tmp_path / "s").rows == 0

    def test_log_batch_rejected(self, tmp_path, t2_small):
        store = init_store(tmp_path / "s", "tsubame2")
        log = FailureLog(
            machine=t2_small.machine,
            records=tuple(self._aware(t2_small.records)),
            window_start=t2_small.window_start.replace(tzinfo=timezone.utc),
            window_end=t2_small.window_end.replace(tzinfo=timezone.utc),
        )
        with pytest.raises(StoreError, match="naive timestamps"):
            store.append(log)
        assert not list((tmp_path / "s").glob("seg-*"))
        assert open_store(tmp_path / "s").rows == 0


class TestNoRecordsBuilt:
    """An append builds the batch's columns once and no record."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        check = FailureRecord.__post_init__

        def counting(record):
            calls.append(record)
            check(record)

        monkeypatch.setattr(FailureRecord, "__post_init__", counting)
        return calls

    def test_lazy_log_stays_lazy(self, tmp_path, t3_small, built):
        write_csv(t3_small, tmp_path / "t3.csv")
        log = read_csv(tmp_path / "t3.csv")
        assert log._lazy
        store = init_store(tmp_path / "s", "tsubame3")
        store.append(log, reindex=True)
        assert built == []
        assert log._lazy
        assert_log_roundtrip(
            open_store(tmp_path / "s").log(), read_csv(tmp_path / "t3.csv")
        )

    def test_record_batch_builds_no_record(self, tmp_path, t3_small, built):
        records = list(reversed(t3_small.records))
        store = init_store(
            tmp_path / "s", "tsubame3",
            window_start=t3_small.window_start,
            window_end=t3_small.window_end,
        )
        store.append(records, reindex=True)
        assert built == []
        assert_log_roundtrip(open_store(tmp_path / "s").log(), t3_small)


class TestTimeTravel:
    def test_as_of_is_a_prefix_cut(self, stored, t3_small):
        path, _ = stored
        half = len(t3_small) // 2
        cutoff = t3_small.records[half - 1].timestamp
        view = open_store(path, as_of=cutoff)
        visible = [
            r for r in t3_small.records if r.timestamp <= cutoff
        ]
        assert view.rows == len(visible)
        log = view.log()
        assert log.records == tuple(visible)
        assert log.window_end == cutoff
        verify_parity(view.payloads(), log)

    def test_as_of_fingerprint_is_distinct_and_stable(
        self, stored, t3_small
    ):
        path, store = stored
        cutoff = t3_small.records[50].timestamp
        first = open_store(path, as_of=cutoff).fingerprint
        second = open_store(path, as_of=cutoff).fingerprint
        assert first == second
        assert first != store.fingerprint
        assert first.startswith(store.fingerprint + "@")

    def test_as_of_handle_is_read_only(self, stored, t3_small):
        path, _ = stored
        cutoff = t3_small.records[50].timestamp
        view = open_store(path, as_of=cutoff)
        with pytest.raises(StoreError, match="read-only"):
            view.append(t3_small)
        with pytest.raises(StoreError, match="read-only"):
            view.compact()

    def test_as_of_before_window_start_rejected(self, stored, t3_small):
        path, _ = stored
        with pytest.raises(StoreError, match="window"):
            open_store(
                path,
                as_of=t3_small.window_start - timedelta(hours=1),
            )


class TestFingerprint:
    def test_stable_across_reopen(self, stored):
        path, store = stored
        assert open_store(path).fingerprint == store.fingerprint

    def test_changes_on_append(self, stored, t3_small):
        _, store = stored
        before = store.fingerprint
        store.append(_late_records(t3_small, 3))
        assert store.fingerprint != before


class TestCompaction:
    def test_compaction_preserves_data_and_payloads(
        self, stored, t3_small
    ):
        path, store = stored
        before = _payload_bytes(store)
        summary = store.compact()
        assert summary["compacted"] is True
        assert summary["segments"] == 2
        assert len(store.segments) == 1
        assert_log_roundtrip(store.log(), t3_small)
        assert _payload_bytes(store) == before
        # A fresh open sees one generation-1 segment and equal bytes.
        reopened = open_store(path)
        assert reopened.manifest["generation"] == 1
        assert_log_roundtrip(reopened.log(), t3_small)
        assert _payload_bytes(reopened) == before

    def test_compact_noop_on_single_segment(self, tmp_path, t2_small):
        store = init_store(
            tmp_path / "s", "tsubame2",
            window_start=t2_small.window_start,
            window_end=t2_small.window_end,
        )
        store.append(t2_small)
        summary = store.compact()
        assert summary["compacted"] is False
        assert "reason" in summary

    def test_append_after_compact(self, stored, t3_small):
        _, store = stored
        store.compact()
        summary = store.append(_late_records(t3_small, 4))
        assert summary["rows_total"] == len(t3_small) + 4
        verify_parity(store.payloads(), store.log())

    def test_old_segment_files_are_deleted(self, stored):
        path, store = stored
        old = [s.path for s in store.segments]
        store.compact()
        for stale in old:
            assert not stale.exists()


class TestInfo:
    def test_info_shape(self, stored, t3_small):
        _, store = stored
        info = store.info()
        assert info["machine"] == "tsubame3"
        assert info["rows"] == len(t3_small)
        assert info["segments"] == 2
        assert info["appends"] == 2
        assert info["recovered"] is False
        assert info["quarantined"] == []
        assert info["analytics"]["rows"] == len(t3_small)
        assert "watermark" in info
        assert "window_start" in info

    def test_empty_store_info(self, tmp_path):
        store = init_store(tmp_path / "s", "tsubame2")
        info = store.info()
        assert info["rows"] == 0
        assert "window_start" not in info
        assert "watermark" not in info


class TestSinks:
    def test_ingest_log_creates_then_appends(self, tmp_path, t2_small):
        path = tmp_path / "s"
        half = len(t2_small) // 2
        first = ingest_log(path, sub_log(t2_small, 0, half))
        assert first["rows"] == half
        second = ingest_log(
            path, sub_log(t2_small, half, len(t2_small))
        )
        assert second["rows_total"] == len(t2_small)
        assert_log_roundtrip(open_store(path).log(), t2_small)

    def test_generator_to_store(self, tmp_path):
        generator = TraceGenerator(
            profile_for("tsubame2"),
            GeneratorConfig(seed=3, num_failures=40),
        )
        summary = generator.to_store(tmp_path / "s")
        assert summary["rows"] == 40
        assert_log_roundtrip(
            open_store(tmp_path / "s").log(), generator.generate()
        )

    def test_simulator_to_store(self, tmp_path):
        simulator = ClusterSimulator("tsubame2", seed=1)
        simulator.run(300.0)
        expected = simulator.injected_log()
        summary = simulator.to_store(tmp_path / "s")
        assert summary["rows"] == len(expected)
        store = open_store(tmp_path / "s")
        assert store.machine == "tsubame2"
        assert store.rows == len(expected)
