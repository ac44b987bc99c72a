"""Regenerate the golden trace corpus.

Run from the repo root::

    PYTHONPATH=src python tests/trace/golden/regen.py

Each scenario below is recorded fresh and written in canonical form.
The corpus is committed; regenerate it only when the trace schema
version is bumped or the simulation's event stream changes *on
purpose* — tests/trace/test_golden.py treats any replay divergence
against these files as a regression.
"""

from __future__ import annotations

from pathlib import Path

from repro.sim import CheckpointPolicy, ClusterSimulator, WorkloadConfig
from repro.train import TrainingJobConfig
from repro.trace import record_run, write_trace

GOLDEN_DIR = Path(__file__).parent

#: name -> ClusterSimulator kwargs + horizon.  Keep horizons short:
#: every scenario is replayed bit-exactly in tier-1.
SCENARIOS: dict[str, dict] = {
    # Plain headless run, default calibration.
    "t2_baseline": {
        "machine": "tsubame2",
        "kwargs": {"seed": 7},
        "horizon": 600,
    },
    # Elevated intensity so correlated multi-GPU bursts occur; the
    # golden test asserts at least one fail event with >1 GPU.
    "t2_burst": {
        "machine": "tsubame2",
        "kwargs": {"seed": 8, "intensity": 2.0},
        "horizon": 500,
    },
    # Full stack: workload scheduler + checkpointing + health tests.
    "t3_workload": {
        "machine": "tsubame3",
        "kwargs": {
            "seed": 11,
            "intensity": 3.0,
            "health_test_effectiveness": 0.5,
            "workload": WorkloadConfig(),
            "checkpoint_policy": CheckpointPolicy(6.0, 0.2),
        },
        "horizon": 400,
    },
    # Gang-scheduled training job on the modern A100 fleet: the
    # trace carries the training config in its header and the gang's
    # job lifecycle (jsub/jstart/jkill) in its event stream.
    "a100_train": {
        "machine": "a100",
        "kwargs": {
            "seed": 7,
            "checkpoint_policy": CheckpointPolicy(2.0, 0.25),
            "train": TrainingJobConfig(num_nodes=64),
        },
        "horizon": 240,
    },
}


def regenerate() -> None:
    for name, scenario in SCENARIOS.items():
        sim = ClusterSimulator(scenario["machine"], **scenario["kwargs"])
        _, trace = record_run(sim, scenario["horizon"])
        path = GOLDEN_DIR / f"{name}.jsonl"
        write_trace(trace, path)
        print(f"{path}: {trace.event_count} events")


if __name__ == "__main__":
    regenerate()
