"""Dataset registry: named failure logs the service analyzes.

Every query endpoint addresses data by *handle* (``/analyze/t2/...``)
rather than by path, so the service decides once — at registration —
how a log is loaded, validated, and fingerprinted.  Handles come from
four places: files (via :func:`repro.io.read_log`, same tolerant
ingest modes as the CLI), synthesis (:func:`repro.synth.generate_log`,
the calibrated paper logs), persistent stores
(:func:`repro.store.open_store`, opened lazily with materialized
analytics), and uploads (the ``POST /datasets`` endpoint).

The fingerprint keys the result cache, so replacing a handle's data
invalidates its cached results implicitly (old keys simply stop being
generated).  Fingerprints are a function of the *stored* data, never
of process state: file handles hash the file bytes
(:func:`fingerprint_file`), store handles reuse the store's committed
manifest fingerprint, and in-memory logs hash their full content
(:func:`fingerprint_log`) — so the same bytes on disk produce the
same cache keys across restarts, which is what makes warm restarts
byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Any, Callable

from repro.core.columns import us_to_isoformat
from repro.core.records import FailureLog
from repro.errors import ServeError, ValidationError
from repro.io import read_log
from repro.io.tolerant import LogReadReport
from repro.machines.specs import known_machines
from repro.synth import GeneratorConfig, generate_log

__all__ = [
    "fingerprint_file",
    "fingerprint_log",
    "Dataset",
    "DatasetRegistry",
    "parse_dataset_spec",
    "register_from_spec",
]


def fingerprint_log(log: FailureLog) -> str:
    """Content hash of a failure log (hex SHA-256).

    Hashes the machine, observation window, and every record field, so
    two logs fingerprint equal iff they carry the same data — however
    they were loaded.  A lazy log's records are
    ``records_from_view(view)``, so its rows are formatted from the
    view's columns, byte for byte, without building a record.
    """
    digest = hashlib.sha256()
    digest.update(
        f"{log.machine}|{log.window_start.isoformat()}"
        f"|{log.window_end.isoformat()}|{len(log)}\n".encode()
    )
    if log._lazy:
        view = log.columns
        loci = (*view.locus_names, None)  # code -1 picks the trailing None
        bounds = view.slot_offsets.tolist()
        slots = view.slot_values.tolist()
        gpus = [  # sorted, as FailureRecord stores them
            "()" if a == b else str(tuple(sorted(slots[a:b])))
            for a, b in zip(bounds, bounds[1:])
        ]
        rows = zip(
            view.record_ids.tolist(),
            us_to_isoformat(view.ts_us),
            view.node_ids.tolist(),
            map(view.category_names.__getitem__, view.category_codes.tolist()),
            view.ttr_hours.tolist(),
            gpus,
            map(loci.__getitem__, view.locus_codes.tolist()),
        )
        digest.update(
            "".join(map("%s|%s|%s|%s|%r|%s|%s\n".__mod__, rows)).encode()
        )
        return digest.hexdigest()
    for record in log:
        digest.update(
            f"{record.record_id}|{record.timestamp.isoformat()}"
            f"|{record.node_id}|{record.category}|{record.ttr_hours!r}"
            f"|{record.gpus_involved}|{record.root_locus}\n".encode()
        )
    return digest.hexdigest()


def fingerprint_file(path: str | Path) -> str:
    """Content hash of a file's raw bytes (hex SHA-256).

    The fingerprint of a file-backed dataset: a pure function of the
    bytes on disk, so restarting the process (or loading the same
    file in another process) yields the same cache keys and therefore
    byte-identical cache behavior.  Parsing does not enter into it —
    what you fingerprint is what you stored.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class Dataset:
    """One registered log: handle + data + provenance.

    The log itself may be lazy: store-backed handles carry a loader
    instead of a materialized :class:`FailureLog`, so registering (and
    describing, and serving materialized analytics for) a store never
    pays an O(rows) read — ``.log`` materializes on first access and
    is cached on the handle.
    """

    name: str
    fingerprint: str
    source: str
    _log: FailureLog | None = field(default=None, repr=False)
    _loader: Callable[[], FailureLog] | None = field(
        default=None, repr=False
    )
    _materialized: Callable[[], dict[str, Any]] | None = field(
        default=None, repr=False
    )
    _summary: dict[str, Any] | None = field(default=None, repr=False)

    @property
    def log(self) -> FailureLog:
        """The dataset's failure log (materialized on first access)."""
        if self._log is None:
            object.__setattr__(self, "_log", self._loader())
        return self._log

    def materialized(self, analysis: str) -> dict[str, Any] | None:
        """Pre-computed payload for ``analysis``, or None.

        Store-backed datasets maintain their analytics incrementally
        on append (:mod:`repro.store.views`); serving reads them here
        instead of re-running the cold kernels.  None means "compute
        it" — either the dataset has no materialized views at all, or
        this one analysis is unavailable (e.g. lenient taxonomy).
        """
        if self._materialized is None:
            return None
        return self._materialized().get(analysis)

    def describe(self) -> dict[str, Any]:
        """JSON-friendly summary for the ``/datasets`` endpoints."""
        if self._summary is not None:
            summary = dict(self._summary)
        else:
            log = self.log
            summary = {
                "machine": log.machine,
                "failures": len(log),
                "window_start": log.window_start.isoformat(),
                "window_end": log.window_end.isoformat(),
                "span_hours": log.span_hours,
            }
        summary["name"] = self.name
        summary["fingerprint"] = self.fingerprint
        summary["source"] = self.source
        return summary


class DatasetRegistry:
    """Named :class:`FailureLog` handles for the service."""

    def __init__(self) -> None:
        self._datasets: dict[str, Dataset] = {}

    def __len__(self) -> int:
        return len(self._datasets)

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def names(self) -> list[str]:
        """Registered handles, sorted."""
        return sorted(self._datasets)

    def get(self, name: str) -> Dataset:
        """Look a handle up.

        Raises:
            ServeError: For an unknown handle.
        """
        try:
            return self._datasets[name]
        except KeyError:
            known = ", ".join(self.names()) or "none registered"
            raise ServeError(
                f"unknown dataset {name!r} (known: {known})"
            ) from None

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or "/" in name:
            raise ServeError(
                f"invalid dataset name {name!r} (must be non-empty, "
                f"no '/')"
            )

    def register(
        self,
        name: str,
        log: FailureLog,
        source: str,
        fingerprint: str | None = None,
    ) -> Dataset:
        """Register (or replace) a handle with an in-memory log.

        ``fingerprint`` overrides the default content hash when the
        caller has a cheaper restart-stable identity (file bytes, a
        store manifest).
        """
        self._check_name(name)
        dataset = Dataset(
            name=name,
            fingerprint=fingerprint or fingerprint_log(log),
            source=source,
            _log=log,
        )
        self._datasets[name] = dataset
        return dataset

    def load(
        self,
        name: str,
        path: str | Path,
        format: str | None = None,
        on_error: str = "raise",
    ) -> Dataset:
        """Register a handle from a log file on disk.

        ``format``/``on_error`` have :func:`repro.io.read_log`
        semantics; in ``"collect"`` mode quarantined rows are dropped
        and only the clean log is registered.  The fingerprint hashes
        the file's raw bytes (:func:`fingerprint_file`), so reloading
        the same file — in this process or the next one — reuses every
        cached result.
        """
        loaded = read_log(path, format=format, on_error=on_error)
        log = loaded.log if isinstance(loaded, LogReadReport) else loaded
        return self.register(
            name,
            log,
            source=f"file:{path}",
            fingerprint=fingerprint_file(path),
        )

    def register_store(
        self,
        name: str,
        path: str | Path,
        as_of: datetime | None = None,
    ) -> Dataset:
        """Register a handle backed by a persistent event store.

        The handle is *lazy*: registration opens the store (an O(1)
        manifest read plus checksum verification), adopts the store's
        committed fingerprint, and defers log materialization until a
        caller actually needs records.  Analytics come from the
        store's incrementally-materialized views
        (:meth:`Dataset.materialized`), which is what makes a serve
        restart over a ``store:`` spec warm: same manifest, same
        fingerprint, same payload bytes, no recomputation.

        Raises:
            StoreError: If the path is not a store, is corrupt beyond
                recovery, or ``as_of`` predates the store's window.
        """
        from repro.store import open_store

        self._check_name(name)
        store = open_store(path, as_of=as_of)
        from repro.store.segments import us_to_datetime

        source = f"store:{path}"
        if as_of is not None:
            source += f"@{as_of.isoformat()}"
        start_us = store.manifest["window_start_us"]
        if start_us is None:
            summary: dict[str, Any] = {
                "machine": store.machine,
                "failures": 0,
                "window_start": None,
                "window_end": None,
                "span_hours": 0.0,
            }
        else:
            end_us = store._window_end_us
            summary = {
                "machine": store.machine,
                "failures": store.rows,
                "window_start": us_to_datetime(start_us).isoformat(),
                "window_end": us_to_datetime(end_us).isoformat(),
                "span_hours": (end_us - start_us) / 1e6 / 3600.0,
            }
        dataset = Dataset(
            name=name,
            fingerprint=store.fingerprint,
            source=source,
            _loader=store.log,
            _materialized=store.payloads,
            _summary=summary,
        )
        self._datasets[name] = dataset
        return dataset

    def synthesize(
        self,
        name: str,
        machine: str,
        seed: int = 0,
        failures: int | None = None,
    ) -> Dataset:
        """Register a calibrated synthetic log for ``machine``."""
        if machine not in known_machines():
            raise ServeError(
                f"unknown machine {machine!r} "
                f"(known: {', '.join(known_machines())})"
            )
        config = GeneratorConfig(seed=seed, num_failures=failures)
        log = generate_log(machine, config=config)
        source = f"synth:{machine}:seed={seed}"
        if failures is not None:
            source += f":failures={failures}"
        return self.register(name, log, source=source)


def parse_dataset_spec(spec: str) -> tuple[str, str]:
    """Split one ``--datasets`` item into ``(name, location)``.

    Grammar: ``NAME=LOCATION`` where ``LOCATION`` is a log file path,
    ``synth:MACHINE[:SEED[:FAILURES]]``, or ``store:PATH`` (a
    :mod:`repro.store` directory, registered lazily with warm
    materialized analytics).

    Raises:
        ValidationError: On a malformed spec.
    """
    name, sep, location = spec.partition("=")
    name, location = name.strip(), location.strip()
    if not sep or not name or not location:
        raise ValidationError(
            f"malformed dataset spec {spec!r} (expected NAME=PATH, "
            f"NAME=synth:MACHINE[:SEED[:FAILURES]], or "
            f"NAME=store:PATH)"
        )
    return name, location


def register_from_spec(
    registry: DatasetRegistry, spec: str
) -> Dataset:
    """Register one CLI ``--datasets`` spec into ``registry``.

    Raises:
        ValidationError: On a malformed spec.
        ServeError: On an unknown machine in a synth spec.
        StoreError: On an unopenable ``store:`` location.
        OSError: If a file location cannot be read.
    """
    name, location = parse_dataset_spec(spec)
    if location.startswith("store:"):
        return registry.register_store(
            name, location[len("store:"):]
        )
    if location.startswith("synth:"):
        parts = location.split(":")
        machine = parts[1] if len(parts) > 1 else ""
        try:
            seed = int(parts[2]) if len(parts) > 2 else 0
            failures = int(parts[3]) if len(parts) > 3 else None
        except ValueError:
            raise ValidationError(
                f"malformed synth spec {location!r} (seed and "
                f"failures must be integers)"
            ) from None
        if len(parts) > 4:
            raise ValidationError(
                f"malformed synth spec {location!r} (too many fields)"
            )
        return registry.synthesize(
            name, machine, seed=seed, failures=failures
        )
    return registry.load(name, location)
