"""Segment compaction: many append-sized segments -> one.

Each append freezes its own segment, so a long-lived store
accumulates files and the read path pays a concatenation per column.
Compaction merges every segment into a single generation-stamped one
and commits a manifest that references only it — the data, the
analytics state, and the store fingerprint's *meaning* are unchanged
(the fingerprint value changes because the lineage did, which is
correct: caches key on committed state, and compaction is a commit).

Crash safety mirrors appends: the merged segment is written and
fsync'd first, the manifest swap is atomic, and the superseded files
are deleted only after the commit — a crash in between leaves them as
orphans for open-time quarantine, never a half-merged store.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.store.reader import _remap
from repro.store.segments import COLUMN_DTYPES, open_segment, write_segment

__all__ = ["compact_store"]


def compact_store(store) -> dict[str, Any]:
    """Merge all of ``store``'s segments into one; returns a summary."""
    manifest = store.manifest
    segments = store.segments
    if len(segments) <= 1:
        return {
            "compacted": False,
            "segments": len(segments),
            "reason": "store already has at most one segment",
        }

    category_table = tuple(
        sorted(set().union(*(s.category_table for s in segments)))
    )
    locus_table = tuple(
        sorted(set().union(*(s.locus_table for s in segments)))
    )
    merged: dict[str, list[np.ndarray]] = {
        name: [] for name in COLUMN_DTYPES if name != "slot_offsets"
    }
    offset_base = 0
    offset_parts: list[np.ndarray] = []
    for segment in segments:
        for name in COLUMN_DTYPES:
            if name in ("slot_offsets", "category", "locus"):
                continue
            merged[name].append(segment.col(name))
        merged["category"].append(
            _remap(
                segment.col("category"), segment.category_table,
                category_table,
            )
        )
        merged["locus"].append(
            _remap(
                segment.col("locus"), segment.locus_table, locus_table,
                none_sentinel=True,
            )
        )
        offsets = segment.col("slot_offsets")
        offset_parts.append(offsets[:-1] + offset_base)
        offset_base += int(offsets[-1])
    offset_parts.append(np.asarray([offset_base], dtype=np.int64))
    columns = {
        name: np.concatenate(parts) for name, parts in merged.items()
    }
    columns["slot_offsets"] = np.concatenate(offset_parts)

    generation = int(manifest["generation"]) + 1
    seq = int(manifest["next_seq"])
    name = f"seg-{seq:06d}-g{generation:03d}.rps"
    entry = write_segment(
        store.root / name, columns, category_table, locus_table
    )
    entry["generation"] = generation
    entry["seq"] = seq

    updated = dict(manifest)
    updated["generation"] = generation
    updated["next_seq"] = seq + 1
    updated["segments"] = [entry]
    # One snapshot survives: the appends history is collapsed into the
    # merged segment (a torn-tail rollback can only return to here).
    updated["appends"] = [
        {
            "seq": seq,
            "file": name,
            "rows": int(manifest["rows"]),
            "rows_total": int(manifest["rows"]),
            "last_record_id": int(manifest["last_record_id"]),
            "watermark_us": manifest["watermark_us"],
            "window_start_us": manifest["window_start_us"],
            "window_end_us": manifest["window_end_us"],
        }
    ]
    updated["compactions"] = list(manifest.get("compactions", [])) + [
        {
            "generation": generation,
            "merged": [s.path.name for s in segments],
            "file": name,
        }
    ]
    # The incremental views are a function of the record sequence,
    # which compaction preserves — carry them forward under the new
    # token instead of rebuilding.
    views = store.views()
    views.save(store.root, store._commit(updated))
    old_files = [s.path for s in segments]
    store.segments = [open_segment(store.root / name, verify=False)]
    store._log = None
    for path in old_files:
        path.unlink(missing_ok=True)
    return {
        "compacted": True,
        "segments": len(old_files),
        "segment": name,
        "generation": generation,
        "rows": int(updated["rows"]),
        "fingerprint": store.fingerprint,
    }
