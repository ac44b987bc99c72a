"""The batch workloads of the end-to-end benchmark.

Each workload is a class: constructing it is the set-up (inputs are
made from the seed and written under ``workdir``), ``op(index)`` is one
timed operation built from ``seed + index``, ``digest`` reduces an
operation's output to a string that two runs of the same code must
agree on, ``verify`` checks one operation's output right after it and
``check`` checks the run's outputs after the timed loop.
``before(index)`` runs untimed ahead of each operation.

Set-up imports the ``repro`` layers the workload uses, so ``setup_s``,
which is timed in a fresh interpreter, includes what a user of that
path pays to import them.  Operations call those layers through their
modules so the wrappers of ``spans.install`` are seen.

Sizes are chosen so one operation takes 0.3-0.4 s on a 2.1 GHz Xeon
core (``ingest`` ~13 ms), giving 20 to 30 samples in a 10-second run
(hundreds for ``ingest``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import shutil
import statistics
from pathlib import Path
from typing import Any

#: The five ``/analyze`` payloads the store also materializes.
PAYLOADS = ("breakdown", "metrics", "spatial", "seasonal", "multigpu")


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0..1) of ``values``, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1
    ]


def sha(*parts: bytes | str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else part)
    return digest.hexdigest()


def tiled_log(base, copies: int, first: int = 0):
    """``copies`` time-shifted copies of ``base`` end to end, starting
    at copy ``first``; each copy keeps the calibrated marginals."""
    from repro.core.records import FailureLog

    span = base.window_end - base.window_start
    records = [
        dataclasses.replace(
            record,
            record_id=copy * len(base) + i,
            timestamp=record.timestamp + span * copy,
        )
        for copy in range(first, first + copies)
        for i, record in enumerate(base.records)
    ]
    return FailureLog(
        machine=base.machine,
        records=tuple(records),
        window_start=base.window_start + span * first,
        window_end=base.window_start + span * (first + copies),
    )


def payloads_json(payloads: dict) -> bytes:
    return importlib.import_module("repro.serve.http").json_body(payloads)


class Workload:
    """Defaults shared by the batch workloads."""

    name = ""
    #: Nodes in the simulated fleet (for ``sim.cluster.nodes_scanned``).
    fleet_nodes = 0

    def before(self, index: int) -> None:
        """Untimed preparation ahead of operation ``index``."""

    def verify(self, index: int, result: Any) -> list[str]:
        """Failures found in one operation's output, checked untimed."""
        return []

    def check(self, digests: list[str | None], last: Any) -> list[str]:
        """Failures found in the run's outputs (empty when correct)."""
        return []

    def layer_facts(self) -> dict[str, float]:
        """Per-layer values read from the workload's state, not spans."""
        return {}

    def close(self) -> None:
        """Release what the set-up made."""


class Analyze(Workload):
    """``analyze``/``report``: parse a 30x Tsubame-2 CSV (26,910 rows)
    and the 1x Tsubame-3 CSV, render every paper exhibit, and build the
    five ``/analyze`` payloads.  No simulator layer runs."""

    name = "analyze"
    T2_COPIES = 30

    def __init__(self, workdir: Path, seed: int) -> None:
        from repro import io
        from repro.core import report
        from repro.serve import app
        from repro.synth import generate_log

        self.io, self.report, self.app = io, report, app
        self.t2_path = workdir / "t2.csv"
        self.t3_path = workdir / "t3.csv"
        io.write_csv(
            tiled_log(generate_log("tsubame2", seed=seed), self.T2_COPIES),
            self.t2_path,
        )
        io.write_csv(generate_log("tsubame3", seed=seed), self.t3_path)
        self.workdir = workdir

    def op(self, index: int):
        t2 = self.io.read_log(self.t2_path)
        t3 = self.io.read_log(self.t3_path)
        text = self.report.full_report(t2, t3)
        payloads = {name: self.app.ANALYSES[name](t2) for name in PAYLOADS}
        return t2, text, payloads

    def digest(self, result) -> str:
        _, text, payloads = result
        return sha(text, payloads_json(payloads))

    def check(self, digests, last) -> list[str]:
        from repro.store import init_store, verify_parity

        failures = []
        if len(set(digests)) != 1:
            failures.append("analyze: operations on one input disagree")
        # The payloads of the CSV-read log must equal the store's
        # materialized payloads over the same rows.
        log = last[0]
        path = self.workdir / "check.store"
        try:
            store = init_store(path, log.machine,
                               window_start=log.window_start,
                               window_end=log.window_end)
            store.append(log)
            materialized = store.payloads()
            if sorted(materialized) != sorted(PAYLOADS):
                failures.append(
                    f"analyze: store materialized {sorted(materialized)}")
            verify_parity(materialized, log)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            failures.append(f"analyze: store parity: {exc}")
        finally:
            shutil.rmtree(path, ignore_errors=True)
        return failures


class Ingest(Workload):
    """Store ingest: append one time-shifted 897-row Tsubame-2 batch to
    a store that starts at 10x, then read the materialized payloads.

    Operations run in cycles of ``CYCLE``: the store is reset to the
    10x base before each cycle (untimed), op ``REOPEN_AT`` of a cycle
    also reopens the store with ``verify=True`` (a warm restart) and the
    last op also compacts it.  Every cycle therefore does identical
    work, however many cycles a run completes."""

    name = "ingest"
    BASE_COPIES = 10
    CYCLE = 50
    REOPEN_AT = 24

    def __init__(self, workdir: Path, seed: int) -> None:
        from repro import store
        from repro.synth import generate_log

        self.store_mod = store
        base = generate_log("tsubame2", seed=seed)
        log = tiled_log(base, self.BASE_COPIES)
        self.pristine = workdir / "base.store"
        store.init_store(
            self.pristine, log.machine,
            window_start=log.window_start, window_end=log.window_end,
        ).append(log)
        self.batches = [
            tiled_log(base, 1, first=self.BASE_COPIES + k).records
            for k in range(self.CYCLE)
        ]
        self.path = workdir / "live.store"
        self.store = None

    def before(self, index: int) -> None:
        if index % self.CYCLE == 0:
            shutil.rmtree(self.path, ignore_errors=True)
            shutil.copytree(self.pristine, self.path)
            self.store = self.store_mod.open_store(self.path)

    def op(self, index: int):
        k = index % self.CYCLE
        summary = self.store.append(self.batches[k], reindex=True)
        if k == self.REOPEN_AT:
            self.store = self.store_mod.open_store(self.path, verify=True)
        if k == self.CYCLE - 1:
            self.store.compact()
        return summary["fingerprint"], self.store.payloads()

    def digest(self, result) -> str:
        fingerprint, payloads = result
        return sha(fingerprint, payloads_json(payloads))

    def check(self, digests, last) -> list[str]:
        failures = [
            f"ingest: op {i} differs from op {i - self.CYCLE} at the "
            f"same cycle position"
            for i in range(self.CYCLE, len(digests))
            if digests[i] != digests[i - self.CYCLE]
        ]
        try:
            store = self.store_mod.open_store(self.path, verify=True)
            self.store_mod.verify_parity(store.payloads(), store.log())
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            failures.append(f"ingest: final store: {exc}")
        return failures

    def layer_facts(self) -> dict[str, float]:
        segments = sum(p.stat().st_size for p in self.path.glob("seg-*.rps"))
        rows = self.store_mod.open_store(self.path).rows
        return {"store.bytes_per_row": segments / rows}


class Simulate(Workload):
    """Plain simulation ensemble: 16 serial replications of the
    1024-node A100 fleet over 2000 h at the calibrated failure rate —
    engine, injector, cluster and repair, with no gang and no batch
    scheduler."""

    name = "simulate"
    machine = "a100"
    fleet_nodes = 1024

    def __init__(self, workdir: Path, seed: int) -> None:
        from repro.sim import montecarlo

        self.montecarlo = montecarlo
        self.seed = seed

    def op(self, index: int):
        return self.montecarlo.run_replications(
            self.machine, 16, 2000.0, seed=self.seed + index
        )

    def digest(self, result) -> str:
        return sha(repr(result))

    def check(self, digests, last) -> list[str]:
        if self.digest(self.op(0)) != digests[0]:
            return [f"{self.name}: op 0 re-run gives another report"]
        return []


class Train(Simulate):
    """``train simulate``: two serial replications of a 512-node gang on
    the A100 fleet over 2000 h, checkpointing at the Young/Daly interval
    for the nominal failure rate."""

    name = "train"
    GANG = 512

    def __init__(self, workdir: Path, seed: int) -> None:
        from repro.machines.specs import get_machine
        from repro.sim.checkpoint import young_daly_policy
        from repro.train import montecarlo
        from repro.train.config import TrainingJobConfig

        self.montecarlo = montecarlo
        self.seed = seed
        spec = get_machine(self.machine)
        job_mtbf = (
            spec.log_span_hours / spec.reported_failures
            * spec.num_nodes / self.GANG
        )
        self.policy = young_daly_policy(0.25, job_mtbf)
        self.config = TrainingJobConfig(num_nodes=self.GANG)

    def op(self, index: int):
        return self.montecarlo.run_train_replications(
            self.machine, 2, 2000.0, checkpoint_policy=self.policy,
            train=self.config, seed=self.seed + index,
        )


class Trace(Workload):
    """Record and replay: simulate Tsubame-3 with its batch workload for
    300 h while recording, write the trace, read it back and replay it
    with verification."""

    name = "trace"
    machine = "tsubame3"
    fleet_nodes = 540
    HORIZON = 300.0

    def __init__(self, workdir: Path, seed: int) -> None:
        from repro import sim, trace

        self.sim, self.trace = sim, trace
        self.seed = seed
        self.path = workdir / "run.trace.jsonl"

    def op(self, index: int):
        simulator = self.sim.ClusterSimulator(
            self.machine, seed=self.seed + index,
            workload=self.sim.WorkloadConfig(),
        )
        _, recorded = self.trace.record_run(simulator, self.HORIZON)
        self.trace.write_trace(recorded, self.path)
        parsed, _ = self.trace.read_trace(self.path)
        return recorded, self.trace.replay(parsed, verify=False)

    def digest(self, result) -> str:
        recorded, replayed = result
        return sha(
            "\n".join(recorded.event_lines()),
            self.trace.canonical_line(recorded.report),
            str(replayed.bit_exact),
        )

    def verify(self, index: int, result) -> list[str]:
        _, replayed = result
        if replayed.bit_exact:
            return []
        return [f"trace: op {index} replay is not bit-exact: "
                f"{replayed.divergence.describe()}"]


BATCH = {cls.name: cls for cls in (Analyze, Ingest, Simulate, Train, Trace)}
