"""Crash-consistency: corruption is recovered or refused, never served.

Chaos injection (:mod:`repro.testing.chaos`) simulates torn writes and
bit rot on segment and manifest files.  The invariant under test: an
``open_store`` either recovers to a previously committed state
(dropping only the torn tail) or raises :class:`StoreCorruptError` —
it never silently returns wrong rows or wrong analytics.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.errors import StoreCorruptError
from repro.store import open_store
from repro.store.manifest import MANIFEST_NAME, PREV_MANIFEST_NAME
from repro.store.views import _checksum, verify_parity
from repro.testing import flip_byte, truncate_file
from tests.store.conftest import assert_log_roundtrip, sub_log

_FOOTER_LEN = 8 + 8 + 32


def _segment_files(path):
    return sorted(p for p in path.glob("seg-*.rps"))


def _first_batch_rows(store) -> int:
    return store.manifest["appends"][0]["rows"]


class TestTornTailSegment:
    @pytest.mark.parametrize("fault", ["truncate", "flip"])
    def test_tail_corruption_rolls_back_one_append(
        self, stored, t3_small, fault
    ):
        path, store = stored
        rows_before = _first_batch_rows(store)
        tail = _segment_files(path)[-1]
        if fault == "truncate":
            truncate_file(tail, keep_fraction=0.5)
        else:
            flip_byte(tail, offset=-(_FOOTER_LEN + 1))

        recovered = open_store(path)
        assert recovered.recovered is True
        assert recovered.rows == rows_before
        # The torn file is quarantined, not deleted.
        assert not tail.exists()
        assert tail.with_name(tail.name + ".torn").exists()
        # Rows and analytics are exactly the first batch's.
        prefix = sub_log(t3_small, 0, rows_before)
        assert recovered.log().records == prefix.records
        verify_parity(recovered.payloads(), recovered.log())

    def test_recovery_is_idempotent(self, stored):
        path, _ = stored
        truncate_file(_segment_files(path)[-1], keep_fraction=0.5)
        first = open_store(path)
        assert first.recovered is True
        # The healed manifest was re-committed: a second open is clean.
        second = open_store(path)
        assert second.recovered is False
        assert second.rows == first.rows
        assert second.fingerprint == first.fingerprint

    def test_append_after_recovery(self, stored, t3_small):
        path, store = stored
        rows_before = _first_batch_rows(store)
        truncate_file(_segment_files(path)[-1], keep_fraction=0.5)
        recovered = open_store(path)
        # The lost tail batch can simply be appended again.
        recovered.append(sub_log(t3_small, rows_before, len(t3_small)))
        assert_log_roundtrip(recovered.log(), t3_small)
        verify_parity(recovered.payloads(), recovered.log())

    def test_interior_corruption_refuses_to_drop_data(self, stored):
        path, _ = stored
        flip_byte(
            _segment_files(path)[0], offset=-(_FOOTER_LEN + 1)
        )
        with pytest.raises(StoreCorruptError, match="interior"):
            open_store(path)

    def test_verify_false_defers_digest_failures(self, stored):
        # verify=False skips the digest pass, so bit rot in a column
        # goes unnoticed at open — the documented trade-off; structural
        # tears are still caught.
        path, store = stored
        flip_byte(
            _segment_files(path)[-1], offset=-(_FOOTER_LEN + 1)
        )
        unverified = open_store(path, verify=False)
        assert unverified.recovered is False
        assert unverified.rows == store.rows


class TestTornManifest:
    def test_torn_manifest_falls_back_and_orphans_tail(
        self, stored, t3_small
    ):
        path, store = stored
        rows_before = _first_batch_rows(store)
        tail = _segment_files(path)[-1]
        flip_byte(path / MANIFEST_NAME, seed=11)

        recovered = open_store(path)
        assert recovered.recovered is True
        # The previous manifest predates the second append, so the
        # second segment is an unlisted file -> quarantined.
        assert recovered.rows == rows_before
        assert recovered.quarantined == [tail.name]
        assert tail.with_name(tail.name + ".orphan").exists()
        prefix = sub_log(t3_small, 0, rows_before)
        assert recovered.log().records == prefix.records
        verify_parity(recovered.payloads(), recovered.log())

    def test_both_manifests_corrupt_raises(self, stored):
        path, _ = stored
        flip_byte(path / MANIFEST_NAME, seed=11)
        flip_byte(path / PREV_MANIFEST_NAME, seed=12)
        with pytest.raises(StoreCorruptError):
            open_store(path)

    def test_truncated_manifest_falls_back(self, stored, t3_small):
        path, store = stored
        rows_before = _first_batch_rows(store)
        truncate_file(path / MANIFEST_NAME, keep_fraction=0.3)
        recovered = open_store(path)
        assert recovered.recovered is True
        assert recovered.rows == rows_before


class TestOrphans:
    def test_unlisted_segment_is_quarantined(self, stored, t3_small):
        path, store = stored
        stray = path / "seg-000099-g000.rps"
        shutil.copyfile(_segment_files(path)[-1], stray)

        recovered = open_store(path)
        assert recovered.quarantined == [stray.name]
        assert not stray.exists()
        assert stray.with_name(stray.name + ".orphan").exists()
        # The committed data is untouched.
        assert_log_roundtrip(recovered.log(), t3_small)


class TestViewsCorruption:
    def test_corrupt_views_never_serves_bad_analytics(
        self, stored, t3_small
    ):
        path, store = stored
        expected = json.dumps(store.payloads(), sort_keys=True)
        (path / "views.json").write_text('{"token": "store-x"}')
        reopened = open_store(path)
        assert json.dumps(reopened.payloads(), sort_keys=True) == expected
        verify_parity(reopened.payloads(), reopened.log())

    @pytest.mark.parametrize(
        "edit", ["count", "node_counts_list", "resigned_node_counts_list"]
    )
    def test_edited_views_never_serve_bad_analytics(self, stored, edit):
        """A views.json edited under an intact token is rebuilt: a
        checksum mismatch or a malformed state is never loaded."""
        path, store = stored
        expected = json.dumps(store.payloads(), sort_keys=True)
        saved = json.loads((path / "views.json").read_bytes())
        state = saved["state"]
        if edit == "count":
            state["category_counts"]["Software"] += 7
        else:
            state["node_counts"] = list(state["node_counts"].values())
        if edit.startswith("resigned"):
            saved["sha256"] = _checksum(json.dumps(state).encode())
        (path / "views.json").write_text(json.dumps(saved))
        reopened = open_store(path, verify=True)
        assert json.dumps(reopened.payloads(), sort_keys=True) == expected
        verify_parity(reopened.payloads(), reopened.log())

    def test_truncated_views_rebuild(self, stored):
        path, store = stored
        expected = store.views().state()
        truncate_file(path / "views.json", keep_fraction=0.4)
        rebuilt = open_store(path).views().state()
        assert rebuilt == expected
