"""Manifest commit/load atomicity, fallback, and fingerprints."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import StoreCorruptError
from repro.store import init_store, open_store
from repro.store import manifest as manifest_module
from repro.store.manifest import (
    MANIFEST_NAME,
    PREV_MANIFEST_NAME,
    commit_manifest,
    load_manifest,
    manifest_fingerprint,
    new_manifest,
)
from repro.synth import generate_log
from repro.testing import flip_byte, truncate_file

#: The manifest an indented-JSON writer committed after appending
#: ``generate_log("tsubame2", seed=3)`` to an empty tsubame2 store.
INDENTED_MANIFEST = Path(__file__).parent / "data" / "manifest_indent1.json"
INDENTED_FINGERPRINT = "store-addc72a6b1ff5ace86e7d1b2b77d3148"


def _fresh(tmp_path):
    manifest = new_manifest("tsubame2", 1, True)
    commit_manifest(tmp_path, manifest)
    return manifest


class TestCommitLoad:
    def test_round_trip(self, tmp_path):
        manifest = _fresh(tmp_path)
        loaded, recovered = load_manifest(tmp_path)
        assert recovered is False
        body = {k: v for k, v in loaded.items() if k != "checksum"}
        assert body == manifest

    def test_new_manifest_shape(self):
        manifest = new_manifest("tsubame3", 1, False)
        assert manifest["machine"] == "tsubame3"
        assert manifest["strict_taxonomy"] is False
        assert manifest["rows"] == 0
        assert manifest["last_record_id"] == -1
        assert manifest["watermark_us"] is None
        assert manifest["segments"] == []
        assert manifest["appends"] == []

    def test_second_commit_keeps_previous(self, tmp_path):
        _fresh(tmp_path)
        updated = dict(load_manifest(tmp_path)[0])
        del updated["checksum"]
        updated["rows"] = 7
        commit_manifest(tmp_path, updated)
        assert (tmp_path / PREV_MANIFEST_NAME).exists()
        prev = json.loads((tmp_path / PREV_MANIFEST_NAME).read_bytes())
        assert prev["rows"] == 0
        assert load_manifest(tmp_path)[0]["rows"] == 7

    def test_missing_directory_contents(self, tmp_path):
        with pytest.raises(StoreCorruptError, match="no store manifest"):
            load_manifest(tmp_path)


class TestFallback:
    def _two_commits(self, tmp_path):
        _fresh(tmp_path)
        updated = dict(load_manifest(tmp_path)[0])
        del updated["checksum"]
        updated["rows"] = 7
        commit_manifest(tmp_path, updated)

    def test_corrupt_current_falls_back(self, tmp_path):
        self._two_commits(tmp_path)
        flip_byte(tmp_path / MANIFEST_NAME, seed=3)
        loaded, recovered = load_manifest(tmp_path)
        assert recovered is True
        assert loaded["rows"] == 0  # the previous commit answered

    def test_truncated_current_falls_back(self, tmp_path):
        self._two_commits(tmp_path)
        truncate_file(tmp_path / MANIFEST_NAME, keep_fraction=0.5)
        loaded, recovered = load_manifest(tmp_path)
        assert recovered is True
        assert loaded["rows"] == 0

    def test_corrupt_current_without_previous_raises(self, tmp_path):
        _fresh(tmp_path)
        flip_byte(tmp_path / MANIFEST_NAME, seed=3)
        with pytest.raises(StoreCorruptError):
            load_manifest(tmp_path)

    def test_both_corrupt_raises(self, tmp_path):
        self._two_commits(tmp_path)
        flip_byte(tmp_path / MANIFEST_NAME, seed=3)
        flip_byte(tmp_path / PREV_MANIFEST_NAME, seed=4)
        with pytest.raises(
            StoreCorruptError, match="previous manifest"
        ):
            load_manifest(tmp_path)

    def test_tampered_body_fails_checksum(self, tmp_path):
        _fresh(tmp_path)
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_bytes())
        manifest["rows"] = 999  # edit without re-checksumming
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptError, match="checksum mismatch"):
            load_manifest(tmp_path)


class TestFingerprint:
    def test_stable_across_loads(self, tmp_path):
        _fresh(tmp_path)
        first = manifest_fingerprint(load_manifest(tmp_path)[0])
        second = manifest_fingerprint(load_manifest(tmp_path)[0])
        assert first == second
        assert first.startswith("store-")

    def test_changes_with_body(self, tmp_path):
        manifest = _fresh(tmp_path)
        changed = dict(manifest)
        changed["rows"] = 1
        assert manifest_fingerprint(manifest) != manifest_fingerprint(
            changed
        )

    def test_ignores_checksum_field(self, tmp_path):
        manifest = _fresh(tmp_path)
        loaded = load_manifest(tmp_path)[0]  # carries "checksum"
        assert manifest_fingerprint(loaded) == manifest_fingerprint(
            manifest
        )

    def test_file_is_compact_json(self, tmp_path):
        _fresh(tmp_path)
        raw = (tmp_path / MANIFEST_NAME).read_bytes()
        assert b"\n" not in raw
        assert b", " not in raw and b": " not in raw

    def test_commit_returns_the_checksum_it_wrote(self, tmp_path):
        checksum = commit_manifest(tmp_path, new_manifest("tsubame2", 1, True))
        loaded = load_manifest(tmp_path)[0]
        assert loaded["checksum"] == checksum
        assert manifest_fingerprint(loaded, checksum) == manifest_fingerprint(
            loaded
        )


class TestStoreChecksums:
    def test_one_body_checksum_per_append(self, tmp_path, monkeypatch):
        log = generate_log("tsubame2", seed=3)
        store = init_store(tmp_path / "s", "tsubame2")
        store.append(log.records[:300])
        calls = []
        real = manifest_module._body_checksum

        def counting(manifest):
            calls.append(1)
            return real(manifest)

        monkeypatch.setattr(manifest_module, "_body_checksum", counting)
        for start in (300, 600):
            del calls[:]
            summary = store.append(log.records[start:start + 300])
            assert len(calls) == 1
            assert summary["fingerprint"] == store.fingerprint
        assert len(calls) == 1
        monkeypatch.undo()
        reopened = open_store(tmp_path / "s")
        assert reopened.fingerprint == store.fingerprint
        assert reopened.views().rows == len(log)

    def test_indented_manifest_still_loads(self, tmp_path):
        root = tmp_path / "s"
        store = init_store(root, "tsubame2")
        store.append(generate_log("tsubame2", seed=3))
        assert store.fingerprint == INDENTED_FINGERPRINT
        (root / MANIFEST_NAME).write_bytes(INDENTED_MANIFEST.read_bytes())
        reopened = open_store(root)
        assert reopened.recovered is False
        assert reopened.fingerprint == INDENTED_FINGERPRINT
        assert reopened.manifest == json.loads(INDENTED_MANIFEST.read_bytes())
        assert len(reopened.log()) == len(generate_log("tsubame2", seed=3))
