"""The store facade: init / open / append / read / time-travel.

A store is a directory::

    mystore/
      manifest.json        committed truth (atomic, checksummed)
      manifest.prev.json   previous commit (single-corruption fallback)
      views.json           materialized analytics bound to a manifest
      seg-000000-g000.rps  immutable columnar segments, one per append

Open-time recovery, in order:

1. the manifest is parsed and checksum-verified, falling back to the
   previous commit when the current one is torn or corrupt;
2. every listed segment is opened and digest-verified against both
   its own footer and the manifest's recorded digest — a bad *tail*
   segment is quarantined (renamed ``.torn``) and the manifest healed
   back to the previous append's snapshot; a bad non-tail segment
   raises :class:`~repro.errors.StoreCorruptError`, because dropping
   interior data would silently change history;
3. segment files the manifest does not name (a crash between segment
   write and manifest commit) are quarantined as ``.orphan``;
4. materialized views are loaded if their token and checksum match the
   committed manifest, else rebuilt through the same absorb path
   appends use — bit-identical state either way.

``open_store(path, as_of=...)`` opens a read-only view of the store
as it stood at an event time: time-monotone appends make the cut a
prefix of each segment, and the observation window is truncated to
``as_of`` — "the state of the fleet as of March".
"""

from __future__ import annotations

import fnmatch
import os
from datetime import datetime
from pathlib import Path
from typing import Any, Iterable

from repro.core.records import FailureLog, FailureRecord
from repro.errors import StoreCorruptError, StoreError
from repro.machines.specs import get_machine
from repro.store import compact as compact_mod
from repro.store.manifest import (
    MANIFEST_NAME,
    PREV_MANIFEST_NAME,
    commit_manifest,
    load_manifest,
    manifest_fingerprint,
    new_manifest,
)
from repro.store.reader import cut_rows, materialize_log
from repro.store.segments import (
    SCHEMA_VERSION,
    Segment,
    datetimes_to_us,
    open_segment,
    us_to_datetime,
    write_segment,
)
from repro.store.views import StoreViews
from repro.store.writer import batch_columns, normalize_batch

__all__ = ["FailureStore", "ingest_log", "init_store", "open_store"]

_SEGMENT_GLOB = "seg-*.rps"


def init_store(
    path: str | Path,
    machine: str,
    *,
    window_start: datetime | None = None,
    window_end: datetime | None = None,
    strict_taxonomy: bool = True,
) -> "FailureStore":
    """Create an empty store directory and commit its first manifest.

    Raises:
        StoreError: If the directory already holds a store.
        MachineError: If the machine is unknown.
    """
    get_machine(machine)  # validate before touching the filesystem
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    if (root / MANIFEST_NAME).exists() or (
        root / PREV_MANIFEST_NAME
    ).exists():
        raise StoreError(f"{root} already holds a store")
    manifest = new_manifest(machine, SCHEMA_VERSION, strict_taxonomy)
    if (window_start is None) != (window_end is None):
        raise StoreError(
            "pass both window_start and window_end, or neither"
        )
    if window_start is not None:
        if window_end <= window_start:
            raise StoreError(
                f"window_end ({window_end}) must be after "
                f"window_start ({window_start})"
            )
        manifest["window_start_us"] = int(
            datetimes_to_us([window_start])[0]
        )
        manifest["window_end_us"] = int(datetimes_to_us([window_end])[0])
    commit_manifest(root, manifest)
    return FailureStore(root, manifest, [], None)


def open_store(
    path: str | Path,
    *,
    as_of: datetime | None = None,
    verify: bool = True,
) -> "FailureStore":
    """Open an existing store, running crash recovery if needed.

    Args:
        path: Store directory.
        as_of: Open a read-only view of the store at this event time
            (records with ``timestamp <= as_of``; the observation
            window is truncated to ``as_of``).
        verify: Digest-verify every segment (one sequential read per
            segment).  Structural checks always run.

    Raises:
        StoreCorruptError: When the store cannot be recovered without
            losing non-tail data.
    """
    root = Path(path)
    manifest, recovered = load_manifest(root)
    segments, manifest, healed = _open_segments(root, manifest, verify)
    recovered = recovered or healed
    quarantined = _quarantine_orphans(root, manifest)
    if recovered:
        commit_manifest(root, manifest)
    as_of_us: int | None = None
    if as_of is not None:
        as_of_us = int(datetimes_to_us([as_of])[0])
        start_us = manifest["window_start_us"]
        if start_us is None or as_of_us <= start_us:
            raise StoreError(
                f"as_of ({as_of}) must fall after the store's window "
                f"start"
            )
    store = FailureStore(root, manifest, segments, as_of_us)
    store.recovered = recovered
    store.quarantined = quarantined
    return store


def ingest_log(
    path: str | Path,
    log: FailureLog,
    *,
    reindex: bool = False,
) -> dict[str, Any]:
    """Append ``log`` to the store at ``path``, creating it if absent.

    The sink behind ``TraceGenerator.to_store`` and
    ``ClusterSimulator.to_store``: a fresh store adopts the log's
    machine, taxonomy strictness, and observation window; an existing
    one validates the batch against its own invariants.  Returns the
    append summary.
    """
    root = Path(path)
    if (root / MANIFEST_NAME).exists():
        store = open_store(root)
    else:
        store = init_store(
            root,
            log.machine,
            window_start=log.window_start,
            window_end=log.window_end,
            strict_taxonomy=log._strict_taxonomy,
        )
    return store.append(log, reindex=reindex)


def _open_segments(
    root: Path, manifest: dict[str, Any], verify: bool
) -> tuple[list[Segment], dict[str, Any], bool]:
    """Open every listed segment, healing a torn tail.

    A segment that fails verification is only recoverable when it is
    the manifest's *last* one: the manifest is rolled back to the
    previous append's snapshot and the file quarantined.  Interior
    corruption raises — recovery never silently rewrites history.
    """
    healed = False
    while True:
        entries = manifest["segments"]
        segments: list[Segment] = []
        failure: StoreCorruptError | None = None
        for index, entry in enumerate(entries):
            path = root / entry["file"]
            try:
                segment = open_segment(path, verify=verify)
                if verify and segment.digest != entry["sha256"]:
                    raise StoreCorruptError(
                        f"segment {path} does not match the digest the "
                        f"manifest recorded"
                    )
                if segment.rows != entry["rows"]:
                    raise StoreCorruptError(
                        f"segment {path} holds {segment.rows} rows but "
                        f"the manifest recorded {entry['rows']}"
                    )
            except StoreCorruptError as exc:
                if index != len(entries) - 1:
                    raise StoreCorruptError(
                        f"non-tail segment {entry['file']} is corrupt "
                        f"({exc}); refusing to drop interior data"
                    ) from exc
                failure = exc
                break
            segments.append(segment)
        if failure is None:
            return segments, manifest, healed
        manifest = _drop_tail(root, manifest)
        healed = True


def _drop_tail(root: Path, manifest: dict[str, Any]) -> dict[str, Any]:
    """Quarantine the torn tail segment and roll the manifest back."""
    manifest = dict(manifest)
    entries = list(manifest["segments"])
    dropped = entries.pop()
    torn = root / dropped["file"]
    if torn.exists():
        torn.rename(torn.with_name(torn.name + ".torn"))
    manifest["segments"] = entries
    appends = [
        snapshot
        for snapshot in manifest["appends"]
        if snapshot["file"] != dropped["file"]
    ]
    manifest["appends"] = appends
    if appends:
        last = appends[-1]
        manifest["rows"] = last["rows_total"]
        manifest["last_record_id"] = last["last_record_id"]
        manifest["watermark_us"] = last["watermark_us"]
        manifest["window_start_us"] = last["window_start_us"]
        manifest["window_end_us"] = last["window_end_us"]
    else:
        manifest["rows"] = 0
        manifest["last_record_id"] = -1
        manifest["watermark_us"] = None
        if not entries:
            manifest["window_start_us"] = None
            manifest["window_end_us"] = None
    return manifest


def _quarantine_orphans(
    root: Path, manifest: dict[str, Any]
) -> list[str]:
    """Rename segment files the manifest does not name.

    An orphan is the footprint of an append that wrote its segment but
    crashed before the manifest commit — invisible to readers, but
    renamed aside so operators can tell recovery happened.
    """
    listed = {entry["file"] for entry in manifest["segments"]}
    quarantined = []
    for name in sorted(fnmatch.filter(os.listdir(root), _SEGMENT_GLOB)):
        if name not in listed:
            (root / name).rename(root / (name + ".orphan"))
            quarantined.append(name)
    return quarantined


class FailureStore:
    """One opened store: append, read, analyze, compact.

    Build via :func:`init_store` / :func:`open_store`, not directly.
    """

    def __init__(
        self,
        root: Path,
        manifest: dict[str, Any],
        segments: list[Segment],
        as_of_us: int | None,
    ) -> None:
        self.root = root
        self.manifest = manifest
        self.segments = segments
        self.as_of_us = as_of_us
        self.recovered = False
        self.quarantined: list[str] = []
        self._views: StoreViews | None = None
        self._log: FailureLog | None = None

    # -- identity ----------------------------------------------------------

    @property
    def machine(self) -> str:
        return self.manifest["machine"]

    @property
    def strict_taxonomy(self) -> bool:
        return bool(self.manifest["strict_taxonomy"])

    @property
    def rows(self) -> int:
        if self.as_of_us is None:
            return int(self.manifest["rows"])
        return sum(
            cut_rows(segment, self.as_of_us)
            for segment in self.segments
        )

    @property
    def watermark(self) -> datetime | None:
        """Latest committed event time (None when empty)."""
        us = self.manifest["watermark_us"]
        return us_to_datetime(us) if us is not None else None

    @property
    def fingerprint(self) -> str:
        """Stable identity of the committed state this handle sees.

        Derived from the manifest body, so it is identical across
        processes and restarts and changes on every append — the
        property the serving layer's result cache keys on.
        """
        token = manifest_fingerprint(self.manifest)
        if self.as_of_us is not None:
            token += f"@{self.as_of_us}"
        return token

    @property
    def _window_end_us(self) -> int:
        if self.as_of_us is not None:
            return self.as_of_us
        return int(self.manifest["window_end_us"])

    # -- append ------------------------------------------------------------

    def append(
        self,
        batch: "FailureLog | Iterable[FailureRecord]",
        *,
        reindex: bool = False,
    ) -> dict[str, Any]:
        """Validate, freeze, and durably commit one batch of events.

        Ordering is segment fsync -> manifest commit -> views save, so
        a crash at any point leaves either the previous committed
        state (plus a quarantinable orphan file) or the new one.

        Returns an append summary (segment file, rows, fingerprint).

        Raises:
            StoreError: On a read-only ``as_of`` handle, or any
                invariant violation (see :mod:`repro.store.writer`).
        """
        if self.as_of_us is not None:
            raise StoreError(
                "this handle is a read-only as_of view; open the "
                "store without as_of to append"
            )
        manifest = self.manifest
        log, start_us, end_us = normalize_batch(
            batch,
            self.machine,
            self.strict_taxonomy,
            manifest["window_start_us"],
            manifest["window_end_us"],
            manifest["watermark_us"],
            int(manifest["last_record_id"]),
            reindex,
        )
        columns, category_table, locus_table = batch_columns(log)
        # Resolve the views against the PRE-append state: resolving
        # after the manifest swap would rebuild them from the new
        # segment list and then absorb the batch a second time.
        views = self.views()
        if views.rows == 0 and views.window_start_us != start_us:
            views = StoreViews(self.machine, start_us)
        seq = int(manifest["next_seq"])
        generation = int(manifest["generation"])
        name = f"seg-{seq:06d}-g{generation:03d}.rps"
        entry = write_segment(
            self.root / name, columns, category_table, locus_table
        )
        entry["generation"] = generation
        entry["seq"] = seq

        updated = dict(manifest)
        updated["segments"] = list(manifest["segments"]) + [entry]
        updated["next_seq"] = seq + 1
        updated["rows"] = int(manifest["rows"]) + len(log)
        updated["last_record_id"] = max(
            int(manifest["last_record_id"]),
            int(columns["record_id"].max()),
        )
        updated["watermark_us"] = int(columns["ts_us"][-1])
        updated["window_start_us"] = start_us
        updated["window_end_us"] = end_us
        updated["appends"] = list(manifest["appends"]) + [
            {
                "seq": seq,
                "file": name,
                "rows": len(log),
                "rows_total": updated["rows"],
                "last_record_id": updated["last_record_id"],
                "watermark_us": updated["watermark_us"],
                "window_start_us": start_us,
                "window_end_us": end_us,
            }
        ]
        commit_manifest(self.root, updated)
        self.manifest = updated
        self.segments = self.segments + [
            open_segment(self.root / name, verify=False)
        ]
        views.absorb(log.columns)
        self._views = views
        views.save(self.root, manifest_fingerprint(updated))
        self._log = None
        return {
            "segment": name,
            "rows": len(log),
            "rows_total": updated["rows"],
            "fingerprint": self.fingerprint,
        }

    # -- reads -------------------------------------------------------------

    def log(self) -> FailureLog:
        """Materialize the (possibly time-traveled) FailureLog.

        The log's columnar view aliases the mmap'd segment arrays;
        the result is cached on the handle.

        Raises:
            StoreError: When the store is empty (no window to build a
                log over).
        """
        if self._log is None:
            if self.manifest["window_start_us"] is None:
                raise StoreError(
                    "store is empty; append a batch before reading"
                )
            self._log = materialize_log(
                self.segments,
                self.machine,
                int(self.manifest["window_start_us"]),
                self._window_end_us,
                self.strict_taxonomy,
                self.as_of_us,
            )
        return self._log

    def columns(self):
        """The store's ColumnarView over the mmap'd segments."""
        return self.log().columns

    # -- materialized analytics --------------------------------------------

    def views(self) -> StoreViews:
        """The store's incremental views, loading or rebuilding once.

        A full-store handle loads ``views.json`` when its token and
        checksum match the committed manifest and otherwise absorbs
        :meth:`log`'s columns; an ``as_of`` handle always rebuilds
        over the visible prefix (time travel is a query feature, not
        the serving hot path).
        """
        if self._views is not None:
            return self._views
        start_us = self.manifest["window_start_us"]
        if start_us is None:
            self._views = StoreViews(self.machine, 0)
            return self._views
        if self.as_of_us is None:
            token = manifest_fingerprint(self.manifest)
            loaded = StoreViews.load(self.root, token)
            if loaded is not None:
                self._views = loaded
                return loaded
        views = StoreViews(self.machine, int(start_us))
        views.absorb(self.log().columns)
        self._views = views
        if self.as_of_us is None:
            views.save(self.root, manifest_fingerprint(self.manifest))
        return views

    def payloads(self) -> dict[str, dict[str, Any]]:
        """Materialized ``/analyze`` payloads (see StoreViews)."""
        if self.manifest["window_start_us"] is None:
            return {}
        return self.views().payloads(self._window_end_us)

    def info(self) -> dict[str, Any]:
        """Operator summary: identity, lineage, and view diagnostics."""
        manifest = self.manifest
        summary: dict[str, Any] = {
            "path": str(self.root),
            "machine": self.machine,
            "schema_version": manifest["schema_version"],
            "strict_taxonomy": self.strict_taxonomy,
            "rows": self.rows,
            "segments": len(self.segments),
            "generation": manifest["generation"],
            "appends": len(manifest["appends"]),
            "fingerprint": self.fingerprint,
            "recovered": self.recovered,
            "quarantined": list(self.quarantined),
        }
        if manifest["window_start_us"] is not None:
            summary["window_start"] = us_to_datetime(
                manifest["window_start_us"]
            ).isoformat()
            summary["window_end"] = us_to_datetime(
                self._window_end_us
            ).isoformat()
        if self.watermark is not None and self.as_of_us is None:
            summary["watermark"] = self.watermark.isoformat()
        if self.as_of_us is not None:
            summary["as_of"] = us_to_datetime(self.as_of_us).isoformat()
        summary["analytics"] = self.views().info()
        return summary

    # -- maintenance -------------------------------------------------------

    def compact(self) -> dict[str, Any]:
        """Merge all segments into one (see :mod:`repro.store.compact`)."""
        if self.as_of_us is not None:
            raise StoreError(
                "this handle is a read-only as_of view; open the "
                "store without as_of to compact"
            )
        return compact_mod.compact_store(self)
