"""Atomic JSON manifest for the segment store.

The manifest is the store's single source of truth: the list of
committed segments, the schema version, the append watermark, and the
window metadata needed to rebuild a :class:`~repro.core.records.FailureLog`.
A segment file that the manifest does not name does not exist as far
as readers are concerned — which is exactly what makes appends
crash-safe:

1. write the new segment file, fsync it;
2. write ``manifest.json.tmp`` with the segment added, fsync it;
3. keep the previous manifest as ``manifest.prev.json``;
4. ``os.replace`` the temp file over ``manifest.json`` (atomic on
   POSIX), then fsync the directory.

A crash between (1) and (4) leaves an orphan segment file that
recovery quarantines; a crash mid-(4) is impossible to observe thanks
to ``os.replace``.  Deliberate corruption (chaos tests, bad disks) is
caught by the embedded checksum, and :func:`load_manifest` falls back
to ``manifest.prev.json`` — losing only the torn tail append, never
silently serving bad rows.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.errors import StoreCorruptError

__all__ = [
    "MANIFEST_NAME",
    "PREV_MANIFEST_NAME",
    "new_manifest",
    "commit_manifest",
    "load_manifest",
    "manifest_fingerprint",
]

MANIFEST_NAME = "manifest.json"
PREV_MANIFEST_NAME = "manifest.prev.json"

_FORMAT = "repro-store"


def new_manifest(
    machine: str,
    schema_version: int,
    strict_taxonomy: bool,
) -> dict[str, Any]:
    """A fresh manifest for an empty store."""
    return {
        "format": _FORMAT,
        "schema_version": schema_version,
        "machine": machine,
        "strict_taxonomy": bool(strict_taxonomy),
        "window_start_us": None,
        "window_end_us": None,
        "window_explicit": False,
        "generation": 0,
        "next_seq": 0,
        "rows": 0,
        "last_record_id": -1,
        "watermark_us": None,
        "appends": [],
        "segments": [],
    }


def _body_checksum(manifest: dict[str, Any]) -> str:
    body = {k: v for k, v in manifest.items() if k != "checksum"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def commit_manifest(root: str | Path, manifest: dict[str, Any]) -> str:
    """Durably replace the store's manifest with ``manifest``.

    The previous committed manifest (if any) survives as
    ``manifest.prev.json`` so single-step corruption of the current
    file is recoverable.  The file is compact JSON; manifests written
    indented by older versions load the same, since the checksum
    covers the parsed body, not the file's bytes.

    Returns:
        The body checksum, for :func:`manifest_fingerprint`.
    """
    root = Path(root)
    manifest = dict(manifest)
    checksum = manifest["checksum"] = _body_checksum(manifest)
    blob = json.dumps(
        manifest, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")

    target = root / MANIFEST_NAME
    tmp = root / (MANIFEST_NAME + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    if target.exists():
        prev = root / PREV_MANIFEST_NAME
        prev_tmp = root / (PREV_MANIFEST_NAME + ".tmp")
        prev_tmp.write_bytes(target.read_bytes())
        os.replace(prev_tmp, prev)
    os.replace(tmp, target)
    # Make the rename itself durable.
    fd = os.open(root, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return checksum


def _parse(path: Path) -> dict[str, Any]:
    try:
        manifest = json.loads(path.read_bytes())
    except OSError as exc:
        raise StoreCorruptError(f"manifest {path} unreadable: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(
            f"manifest {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _FORMAT:
        raise StoreCorruptError(f"manifest {path} is not a store manifest")
    recorded = manifest.get("checksum")
    if recorded != _body_checksum(manifest):
        raise StoreCorruptError(f"manifest {path} checksum mismatch")
    return manifest


def load_manifest(root: str | Path) -> tuple[dict[str, Any], bool]:
    """Load the committed manifest, falling back to the previous one.

    Returns ``(manifest, recovered)`` — ``recovered`` is True when the
    current manifest was unusable and ``manifest.prev.json`` answered
    instead (the caller should re-commit and quarantine orphans).

    Raises:
        StoreCorruptError: When neither manifest parses and verifies,
            or when the directory holds no manifest at all.
    """
    root = Path(root)
    current = root / MANIFEST_NAME
    previous = root / PREV_MANIFEST_NAME
    if not current.exists() and not previous.exists():
        raise StoreCorruptError(f"no store manifest in {root}")
    if current.exists():
        try:
            return _parse(current), False
        except StoreCorruptError:
            if not previous.exists():
                raise
    try:
        return _parse(previous), True
    except StoreCorruptError as exc:
        raise StoreCorruptError(
            f"store manifest in {root} is corrupt and the previous "
            f"manifest could not be used either: {exc}"
        ) from exc


def manifest_fingerprint(
    manifest: dict[str, Any], checksum: str | None = None
) -> str:
    """Stable identity of a committed store state.

    Derived from the manifest body (segment digests, row counts,
    watermark), so two processes opening the same committed state —
    before and after a restart — agree, and any append changes it.
    ``checksum`` is the value :func:`commit_manifest` returned for
    this manifest; passing it skips hashing the body again.
    """
    if checksum is None:
        checksum = _body_checksum(manifest)
    return "store-" + checksum[:32]
