"""Incremental materialized analytics: parity, invariance, persistence."""

from __future__ import annotations

import json

import pytest

from repro.errors import StoreCorruptError
from repro.store import init_store, open_store
from repro.store.manifest import manifest_fingerprint
from repro.store.segments import datetimes_to_us
from repro.store.views import (
    VIEWS_NAME,
    StoreViews,
    _checksum,
    verify_parity,
)
from tests.store.conftest import split_log, sub_log


def _payload_json(views: StoreViews, end_us: int) -> str:
    return json.dumps(views.payloads(end_us), sort_keys=True)


class TestIncrementalParity:
    def test_every_prefix_matches_cold_kernels(self, tmp_path, t3_small):
        """After every append, payloads == the cold repro.core kernels."""
        store = init_store(
            tmp_path / "s", t3_small.machine,
            window_start=t3_small.window_start,
            window_end=t3_small.window_end,
        )
        consumed = 0
        for batch in split_log(t3_small, 4):
            store.append(batch)
            consumed += len(batch)
            prefix = sub_log(t3_small, 0, consumed)
            verify_parity(store.payloads(), prefix)

    def test_batch_split_invariance(self, t3_small):
        """The views state depends on the record sequence, not on how
        it was chopped into batches."""
        start_us = int(datetimes_to_us([t3_small.window_start])[0])
        end_us = int(datetimes_to_us([t3_small.window_end])[0])
        rendered: list[str] = []
        for parts in (1, 3, 7):
            views = StoreViews(t3_small.machine, start_us)
            for batch in split_log(t3_small, parts):
                views.absorb(batch.columns)
            rendered.append(_payload_json(views, end_us))
        assert rendered[0] == rendered[1] == rendered[2]

    def test_verify_parity_catches_divergence(self, stored):
        _, store = stored
        payloads = store.payloads()
        payloads["breakdown"] = dict(payloads["breakdown"])
        payloads["breakdown"]["failures"] += 1
        # A dropped analysis diverges too.
        dropped = store.payloads()
        del dropped["multigpu"]
        for diverged in (payloads, dropped):
            with pytest.raises(StoreCorruptError, match="diverge"):
                verify_parity(diverged, store.log())


class TestStateRoundTrip:
    def test_state_is_its_own_inverse(self, stored):
        _, store = stored
        views = store.views()
        restored = StoreViews.from_state(views.state())
        assert restored.state() == views.state()
        end_us = store._window_end_us
        assert _payload_json(restored, end_us) == _payload_json(
            views, end_us
        )

    def test_info_shape(self, stored, t3_small):
        _, store = stored
        info = store.views().info()
        assert info["rows"] == len(t3_small)
        assert info["gpu_involved_failures"] > 0
        assert set(info["ttr_hours"]) == {"mean", "p50", "p90", "p99"}
        assert info["recent_rate_per_hour"] > 0


class TestPersistence:
    def test_save_load_round_trip(self, stored):
        path, store = stored
        token = manifest_fingerprint(store.manifest)
        loaded = StoreViews.load(path, token)
        assert loaded is not None
        assert loaded.state() == store.views().state()

    def test_wrong_token_means_rebuild(self, stored):
        path, _ = stored
        assert StoreViews.load(path, "store-nope") is None

    def test_corrupt_views_file_means_rebuild(self, stored):
        path, store = stored
        (path / VIEWS_NAME).write_text("{not json")
        token = manifest_fingerprint(store.manifest)
        assert StoreViews.load(path, token) is None
        # open_store quietly rebuilds bit-identical views.
        reopened = open_store(path)
        assert reopened.views().state() == store.views().state()

    def test_missing_views_file_rebuilds_identically(self, stored):
        path, store = stored
        expected = store.views().state()
        (path / VIEWS_NAME).unlink()
        reopened = open_store(path)
        assert reopened.views().state() == expected
        # ... and re-persists for the next open.
        assert (path / VIEWS_NAME).exists()

    def test_version_mismatch_means_rebuild(self, stored):
        path, store = stored
        token = manifest_fingerprint(store.manifest)
        # 1 is the layout before the dead calendar tallies were dropped.
        for version in (999, 1):
            saved = json.loads((path / VIEWS_NAME).read_bytes())
            saved["state"]["version"] = version
            # Re-sign, so the version check alone refuses the file.
            saved["sha256"] = _checksum(json.dumps(saved["state"]).encode())
            (path / VIEWS_NAME).write_text(json.dumps(saved))
            assert StoreViews.load(path, token) is None

    def test_rebuild_equals_incremental_state(self, stored):
        """The open-time rebuild path reproduces the append-time state
        bit-for-bit (EWMA aside, which is batch-boundary sensitive and
        diagnostic-only)."""
        path, store = stored
        incremental = store.views().state()
        (path / VIEWS_NAME).unlink()
        rebuilt = open_store(path).views().state()
        incremental.pop("rate")
        rebuilt.pop("rate")
        assert rebuilt == incremental
