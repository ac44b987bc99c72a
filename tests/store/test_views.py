"""Incremental materialized analytics: parity, invariance, persistence."""

from __future__ import annotations

import hashlib
import json

import numpy as np
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
from repro.stream.online import EwmaRate
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

    def test_views_file_bytes_are_pinned(self, tmp_path, t3_small):
        """``views.json`` after a fixed append sequence, byte for byte:
        the Welford means are folded over Python floats, and the file
        must not move by one bit with how they are fed."""
        store = init_store(
            tmp_path / "s", t3_small.machine,
            window_start=t3_small.window_start,
            window_end=t3_small.window_end,
        )
        for batch in split_log(t3_small, 3):
            store.append(batch)
        digest = hashlib.sha256((tmp_path / "s" / VIEWS_NAME).read_bytes())
        assert digest.hexdigest() == (
            "7be14607715a6fa22bcee06ad36ea721b253f62382b47a6a1506951b935a0a3f"
        )

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
        assert info["ttr_hours"] == {"mean": store.views().ttr.mean}
        assert info["tbf_hours"] == {"mean": store.views().gaps.mean}
        assert "recent_rate_per_hour" not in info


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
        # 1 is the layout before the dead calendar tallies were dropped,
        # 2 the one before the diagnostic sketches and EWMA were.
        for version in (999, 1, 2):
            saved = json.loads((path / VIEWS_NAME).read_bytes())
            saved["state"]["version"] = version
            # Re-sign, so the version check alone refuses the file.
            saved["sha256"] = _checksum(json.dumps(saved["state"]).encode())
            (path / VIEWS_NAME).write_text(json.dumps(saved))
            assert StoreViews.load(path, token) is None

    def test_v2_file_with_sketches_is_refused(self, stored):
        """A views file the sketch-carrying layout wrote is rebuilt,
        and the reopened store serves the same payload bytes."""
        path, store = stored
        expected = json.dumps(store.payloads(), sort_keys=True)
        token = manifest_fingerprint(store.manifest)
        saved = json.loads((path / VIEWS_NAME).read_bytes())
        state = saved["state"]
        state["version"] = 2
        sketch = {"epsilon": 0.005, "n": state["rows"], "tuples": []}
        state["ttr_sketch"] = state["gap_sketch"] = sketch
        state["rate"] = EwmaRate().state()
        saved["sha256"] = _checksum(json.dumps(state).encode())
        (path / VIEWS_NAME).write_text(json.dumps(saved))
        assert StoreViews.load(path, token) is None
        reopened = open_store(path)
        assert json.dumps(reopened.payloads(), sort_keys=True) == expected
        # ... and the rebuild re-persists the current layout.
        assert StoreViews.load(path, token).state() == store.views().state()

    def test_rebuild_equals_incremental_state(self, stored):
        """The open-time rebuild path reproduces the append-time state
        bit-for-bit."""
        path, store = stored
        incremental = store.views().state()
        (path / VIEWS_NAME).unlink()
        rebuilt = open_store(path).views().state()
        assert rebuilt == incremental


class TestInfoAnalytics:
    """``store.info()["analytics"]``: view counts and means, exact
    quantiles and rate over the visible columns."""

    @staticmethod
    def _expected(cols) -> dict:
        ttr, gaps = cols.ttr_hours, np.diff(cols.ts_hours)
        return {
            "ttr": np.quantile(ttr, [0.5, 0.9, 0.99]).tolist(),
            "tbf": float(np.quantile(gaps, 0.5)),
        }

    def test_keys_and_exact_quantiles(self, stored):
        _, store = stored
        analytics = store.info()["analytics"]
        assert list(analytics) == [
            "rows", "categories", "affected_nodes",
            "gpu_involved_failures", "ttr_hours", "tbf_hours",
            "recent_rate_per_hour",
        ]
        assert list(analytics["ttr_hours"]) == ["mean", "p50", "p90", "p99"]
        assert list(analytics["tbf_hours"]) == ["mean", "p50"]
        expected = self._expected(store.log().columns)
        ttr = analytics["ttr_hours"]
        assert [ttr["p50"], ttr["p90"], ttr["p99"]] == expected["ttr"]
        assert analytics["tbf_hours"]["p50"] == expected["tbf"]
        assert ttr["mean"] == store.views().ttr.mean
        assert analytics["tbf_hours"]["mean"] == store.views().gaps.mean

    def test_recent_rate_matches_a_streamed_ewma(self, stored):
        _, store = stored
        rate = EwmaRate(tau_hours=168.0)
        for hour in store.columns().ts_hours.tolist():
            rate.push(hour)
        assert store.info()["analytics"]["recent_rate_per_hour"] == (
            pytest.approx(rate.rate_per_hour(), rel=1e-9)
        )

    def test_as_of_answers_over_its_prefix(self, stored, t3_small):
        path, _ = stored
        half = len(t3_small) // 2
        cutoff = t3_small.records[half - 1].timestamp
        view = open_store(path, as_of=cutoff)
        analytics = view.info()["analytics"]
        prefix = sub_log(t3_small, 0, half).columns
        assert analytics["rows"] == half
        expected = self._expected(prefix)
        ttr = analytics["ttr_hours"]
        assert [ttr["p50"], ttr["p90"], ttr["p99"]] == expected["ttr"]
        assert analytics["tbf_hours"]["p50"] == expected["tbf"]

    def test_single_row_has_no_tbf(self, tmp_path, t3_small):
        store = init_store(
            tmp_path / "s", t3_small.machine,
            window_start=t3_small.window_start,
            window_end=t3_small.window_end,
        )
        store.append(sub_log(t3_small, 0, 1))
        analytics = store.info()["analytics"]
        assert analytics["rows"] == 1
        assert "tbf_hours" not in analytics
        assert analytics["ttr_hours"]["p99"] == t3_small.records[0].ttr_hours
        assert analytics["recent_rate_per_hour"] == 1.0 / 168.0

    def test_empty_store_has_counts_only(self, tmp_path):
        analytics = init_store(tmp_path / "s", "tsubame2").info()["analytics"]
        assert analytics == {
            "rows": 0, "categories": 0, "affected_nodes": 0,
            "gpu_involved_failures": 0,
        }
