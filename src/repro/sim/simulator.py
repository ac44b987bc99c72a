"""High-level simulation facade.

:class:`ClusterSimulator` wires the engine, cluster, repair service,
fault injector, and (optionally) the scheduler + workload together,
runs a horizon, and returns a :class:`SimulationReport` with the
operational metrics the paper's RQ5 discussion cares about: effective
MTTR (including queueing for technicians and spares), availability,
spare stockouts, and — with a workload — goodput and queue waits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import taxonomy
from repro.core.records import FailureLog
from repro.core.taxonomy import FailureClass
from repro.errors import SimulationError
from repro.machines.specs import get_machine
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultInjector
from repro.sim.jobs import WorkloadConfig, WorkloadGenerator
from repro.sim.repair import RepairPolicy, RepairService, SparePool
from repro.sim.scheduler import Scheduler, SchedulerStats
from repro.synth.profiles import MachineProfile, profile_for

if TYPE_CHECKING:  # imported lazily at runtime (repro.train imports sim)
    from repro.train.config import TrainingJobConfig
    from repro.train.gang import GangTrainingRun, TrainStats

__all__ = [
    "SimulationConfig",
    "SimulationReport",
    "ClusterSimulator",
    "hardware_categories",
]


def hardware_categories(machine: str) -> frozenset[str]:
    """Category names whose repair consumes a spare part."""
    return frozenset(
        cat.name
        for cat in taxonomy.categories_for(machine)
        if cat.failure_class is FailureClass.HARDWARE
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Normalized constructor arguments of a :class:`ClusterSimulator`.

    Captured after defaulting (repair policy gains its hardware
    categories, spares their per-category counts), so the config alone
    is enough to rebuild an identical simulator — this is what the
    trace recorder (:mod:`repro.trace`) writes into a trace header.
    """

    machine: str
    seed: int
    intensity: float
    health_test_effectiveness: float
    repair_policy: RepairPolicy
    initial_spares: dict[str, int]
    checkpoint_policy: CheckpointPolicy | None
    workload: WorkloadConfig | None
    train: TrainingJobConfig | None = None


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one simulated horizon."""

    machine: str
    horizon_hours: float
    failures_injected: int
    repairs_completed: int
    effective_mttr_hours: float
    mean_waiting_hours: float
    availability: float
    spare_stockouts: int
    spares_consumed: int
    scheduler: SchedulerStats | None = None
    train: TrainStats | None = None

    @property
    def waiting_share_of_mttr(self) -> float:
        """Fraction of the effective MTTR spent waiting, not repairing."""
        if self.effective_mttr_hours <= 0:
            return 0.0
        return self.mean_waiting_hours / self.effective_mttr_hours


class ClusterSimulator:
    """One-stop simulation runner for a machine profile.

    Args:
        machine: ``"tsubame2"`` or ``"tsubame3"``.
        repair_policy: Staffing / lead-time parameters (defaults to 4
            technicians, one-week part lead time).
        initial_spares: Per-category starting inventory; defaults to
            two spares for every hardware category.
        seed: RNG seed shared by faults and workload.
        intensity: Failure-rate multiplier.
        workload: Optional workload config; enables the scheduler.
        checkpoint_policy: Optional checkpoint policy for jobs
            (required when ``train`` is set).
        train: Optional gang-training config; runs one synchronous
            N-node training job (:class:`repro.train.GangTrainingRun`)
            instead of a batch workload.  Mutually exclusive with
            ``workload``.
        profile: Override the calibration profile (defaults to the
            machine's published profile).
        health_test_effectiveness: Probability a would-be multi-GPU
            failure is contained to one GPU by proactive health tests
            (the Tsubame-3 practice; see
            :class:`repro.sim.faults.FaultInjector`).
        keep_injected_log: Record every injected failure so
            :meth:`injected_log` works afterwards.  Monte-Carlo
            replications that only consume the
            :class:`SimulationReport` pass ``False`` to skip per-failure
            record construction.
    """

    def __init__(
        self,
        machine: str,
        repair_policy: RepairPolicy | None = None,
        initial_spares: dict[str, int] | None = None,
        seed: int = 0,
        intensity: float = 1.0,
        workload: WorkloadConfig | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        profile: MachineProfile | None = None,
        health_test_effectiveness: float = 0.0,
        keep_injected_log: bool = True,
        train: TrainingJobConfig | None = None,
    ) -> None:
        self._profile = profile or profile_for(machine)
        if self._profile.machine != machine:
            raise SimulationError(
                f"profile is for {self._profile.machine!r}, not {machine!r}"
            )
        self._spec = get_machine(machine)
        hardware = hardware_categories(machine)
        if repair_policy is None:
            repair_policy = RepairPolicy(hardware_categories=hardware)
        elif not repair_policy.hardware_categories:
            repair_policy = RepairPolicy(
                num_technicians=repair_policy.num_technicians,
                spare_lead_time_hours=repair_policy.spare_lead_time_hours,
                hardware_categories=hardware,
            )
        if initial_spares is None:
            initial_spares = {name: 2 for name in hardware}
        if train is not None:
            if workload is not None:
                raise SimulationError(
                    "train and workload are mutually exclusive: the gang "
                    "owns its nodes for the whole run"
                )
            if checkpoint_policy is None:
                raise SimulationError(
                    "a training run requires a checkpoint_policy "
                    "(use repro.sim.young_daly_policy for the optimum)"
                )
            if train.num_nodes > self._spec.num_nodes:
                raise SimulationError(
                    f"gang of {train.num_nodes} nodes exceeds "
                    f"{machine}'s {self._spec.num_nodes}"
                )
        self.config = SimulationConfig(
            machine=machine,
            seed=seed,
            intensity=intensity,
            health_test_effectiveness=health_test_effectiveness,
            repair_policy=repair_policy,
            initial_spares=dict(initial_spares),
            checkpoint_policy=checkpoint_policy,
            workload=workload,
            train=train,
        )

        self.engine = SimulationEngine()
        self.cluster = Cluster(self._spec)
        self.spares = SparePool(initial_spares)
        self.repair = RepairService(
            self.engine, self.cluster, repair_policy, self.spares
        )
        self.injector = FaultInjector(
            self.engine,
            self.cluster,
            self.repair,
            self._profile,
            seed=seed,
            intensity=intensity,
            health_test_effectiveness=health_test_effectiveness,
            record_injected=keep_injected_log,
        )
        self.scheduler: Scheduler | None = None
        self.training: GangTrainingRun | None = None
        self._ran = False
        if train is not None:
            # Lazy import: repro.train builds on repro.sim, so the
            # simulator cannot import it at module scope.
            from repro.train.gang import GangTrainingRun

            self.training = GangTrainingRun(
                self.engine, self.cluster, train, checkpoint_policy
            )
        if workload is not None:
            self.scheduler = Scheduler(
                self.engine, self.cluster, checkpoint_policy
            )
            self._workload = WorkloadGenerator(workload, seed=seed + 1)

    def run(self, horizon_hours: float) -> SimulationReport:
        """Run the simulation and summarise it.

        A simulator runs once: another call would start a second
        failure stream on top of the first.

        Raises:
            SimulationError: On a non-positive horizon, or if this
                simulator has already run.
        """
        if self._ran:
            raise SimulationError(
                "this simulator has already run; build a new one"
            )
        if horizon_hours <= 0:
            raise SimulationError(
                f"horizon must be positive, got {horizon_hours}"
            )
        self._ran = True
        if self.scheduler is not None:
            self.scheduler.submit_all(
                self._workload.jobs_until(horizon_hours)
            )
        if self.training is not None:
            # Start the gang before the injector so its t=0 submission
            # precedes the first failure in event-insertion order.
            self.training.start()
        self.injector.start()
        self.engine.run_until(horizon_hours)
        repairs = self.cluster.repairs_completed
        return SimulationReport(
            machine=self._spec.name,
            horizon_hours=horizon_hours,
            failures_injected=self.injector.injected_count,
            repairs_completed=repairs,
            effective_mttr_hours=(
                self.cluster.effective_mttr_hours() if repairs else 0.0
            ),
            mean_waiting_hours=(
                self.cluster.mean_waiting_hours() if repairs else 0.0
            ),
            availability=self.cluster.availability(horizon_hours),
            spare_stockouts=self.spares.stockouts,
            spares_consumed=self.spares.consumed,
            scheduler=(
                self.scheduler.stats if self.scheduler is not None else None
            ),
            train=(
                self.training.finalize(horizon_hours)
                if self.training is not None else None
            ),
        )

    def injected_log(self) -> FailureLog:
        """Failures injected during the run, as an analyzable log."""
        return self.injector.injected_log()

    def to_store(self, path, *, reindex: bool = True):
        """Persist the run's injected failures to the store at ``path``.

        A missing store is created with the run's observation window;
        see :func:`repro.store.ingest_log`.  ``reindex`` defaults to
        True because every run numbers its records from zero, which
        would collide with any previously persisted run.  Returns the
        append summary.

        Raises:
            SimulationError: If nothing has been injected yet.
        """
        from repro.store import ingest_log

        return ingest_log(path, self.injected_log(), reindex=reindex)
