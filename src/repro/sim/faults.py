"""Fault injection for the simulator.

Streams failures into a running simulation with the same calibrated
statistics the trace generator uses: Weibull renewal arrivals, the
profile's category mix, GPU involvement and per-category lognormal
repair durations.  Unlike the offline generator, the injector reacts
to cluster state — failures land on nodes that are currently up.

Per-failure draws are pre-sampled in vectorized NumPy batches and
handed to the event loop as plain Python scalars, so most failures
cost a few list indexes.  A failure on some but not all of a node's
GPUs also draws from the ``Generator`` once per slot, reading
bus-mates from the topology's precomputed ``bus_mates`` table.
Paired with the cluster's O(1) healthy-node index this is what makes
Monte-Carlo replication fast.  Runs are bit-reproducible for a seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.records import FailureLog, FailureRecord
from repro.errors import SimulationError
from repro.machines.specs import get_machine
from repro.machines.topology import build_node_topology
from repro.sim.cluster import Cluster
from repro.sim.engine import SimulationEngine
from repro.sim.repair import RepairService
from repro.synth.arrivals import calibrate_weibull
from repro.synth.involvement import choose_slots
from repro.synth.profiles import MachineProfile
from repro.synth.recovery import LognormalTtrSampler

__all__ = ["FaultInjector"]

#: Draws pre-sampled per vectorized refill.  Large enough that refill
#: overhead amortises to noise, small enough that short runs do not
#: waste milliseconds sampling draws they never consume.
_BATCH = 512
#: Smaller refill for per-category TTR and slot streams (each category
#: only sees its share of the failures).
_SMALL_BATCH = 128


class _Stream:
    """A refillable buffer of pre-sampled draws.

    ``fill`` returns a *list* of Python scalars (``ndarray.tolist()``)
    so consumers index native floats/ints, not NumPy scalars — the
    arithmetic downstream (heap pushes, comparisons) is measurably
    faster on native types.
    """

    __slots__ = ("_fill", "_buffer", "_index")

    def __init__(self, fill) -> None:
        self._fill = fill
        self._buffer: list = []
        self._index = 0

    def next(self):
        index = self._index
        buffer = self._buffer
        if index >= len(buffer):
            buffer = self._buffer = self._fill()
            index = 0
        self._index = index + 1
        return buffer[index]


class _BatchedFaultDraws:
    """Vectorized pre-sampling of every per-failure random quantity.

    Each ``next_*`` attribute but ``next_ttr`` is a bound
    ``_Stream.next``.  ``next_single_slot`` draws by raw propensity:
    the ``num_involved == 1`` case of ``choose_slots``.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        renewal,
        category_names: list[str],
        category_probabilities: np.ndarray,
        involvement_values: list[int],
        involvement_probabilities: np.ndarray,
        ttr_samplers: dict[str, LognormalTtrSampler],
        slot_weights: tuple[float, ...],
    ) -> None:
        names = category_names
        num_categories = len(names)
        self.next_gap = _Stream(
            lambda: renewal.sample_gaps(rng, _BATCH).tolist()
        ).next
        self.next_category = _Stream(
            lambda: [
                names[i]
                for i in rng.choice(
                    num_categories, size=_BATCH, p=category_probabilities
                )
            ]
        ).next
        involvement = np.asarray(involvement_values)
        self.next_involvement = _Stream(
            lambda: rng.choice(
                involvement,
                size=_SMALL_BATCH,
                p=involvement_probabilities,
            ).tolist()
        ).next
        self.next_uniform = _Stream(lambda: rng.random(_BATCH).tolist()).next
        self._ttr = {
            name: _Stream(
                lambda s=sampler: s.sample_batch(
                    rng, _SMALL_BATCH
                ).tolist()
            )
            for name, sampler in ttr_samplers.items()
        }
        weights = np.asarray(slot_weights, dtype=float)
        slot_probabilities = weights / weights.sum()
        num_slots = len(slot_weights)
        self.next_single_slot = _Stream(
            lambda: rng.choice(
                num_slots, size=_SMALL_BATCH, p=slot_probabilities
            ).tolist()
        ).next

    def next_ttr(self, category: str) -> float:
        return self._ttr[category].next()


class FaultInjector:
    """Drives failures into a cluster simulation.

    Args:
        engine: The simulation engine.
        cluster: The cluster to fail nodes on.
        repair: The repair service receiving work.
        profile: Calibration profile for rates and mixes.
        seed: RNG seed.
        intensity: Multiplier on the failure rate (1.0 = the profile's
            historical rate); used by stress benchmarks.
        health_test_effectiveness: Probability that a would-be
            multi-GPU failure is caught early and contained to a
            single GPU.  Models the Tsubame-3 operational practice the
            paper credits for Table III's reversal: "more health-tests
            for multi-GPU cards on the same node and proactive
            replacements".  0 reproduces the profile's involvement
            shares unchanged.
        record_injected: Keep a :class:`FailureRecord` per injected
            failure so :meth:`injected_log` works.  Headless
            Monte-Carlo replications that only need the simulation
            report can pass ``False`` to skip the per-failure record
            (and timestamp) construction.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: Cluster,
        repair: RepairService,
        profile: MachineProfile,
        seed: int = 0,
        intensity: float = 1.0,
        health_test_effectiveness: float = 0.0,
        record_injected: bool = True,
    ) -> None:
        if intensity <= 0:
            raise SimulationError(
                f"intensity must be positive, got {intensity}"
            )
        if not 0.0 <= health_test_effectiveness <= 1.0:
            raise SimulationError(
                f"health_test_effectiveness must lie in [0, 1], got "
                f"{health_test_effectiveness}"
            )
        self._health_test_effectiveness = health_test_effectiveness
        self._engine = engine
        self._cluster = cluster
        self._repair = repair
        self._profile = profile
        self._rng = np.random.default_rng(seed)
        self._spec = get_machine(profile.machine)
        self._topology = build_node_topology(profile.machine)
        renewal = calibrate_weibull(
            mean_hours=profile.tbf_mean_hours / intensity,
            p75_hours=profile.tbf_p75_hours / intensity,
        )
        names = sorted(profile.category_counts)
        weights = np.asarray(
            [profile.category_counts[name] for name in names], dtype=float
        )
        ttr_samplers = {
            name: LognormalTtrSampler(
                profile.category_ttr_mean_hours[name],
                profile.category_ttr_sigma[name],
            )
            for name in names
        }
        recorded = sum(profile.gpu_involvement_counts.values())
        total_gpu = recorded + profile.gpu_involvement_unrecorded
        involvement_values = [0] + sorted(profile.gpu_involvement_counts)
        involvement_probabilities = np.asarray(
            [profile.gpu_involvement_unrecorded / total_gpu]
            + [
                profile.gpu_involvement_counts[k] / total_gpu
                for k in sorted(profile.gpu_involvement_counts)
            ]
        )
        self._draws = _BatchedFaultDraws(
            self._rng,
            renewal,
            names,
            weights / weights.sum(),
            involvement_values,
            involvement_probabilities,
            ttr_samplers,
            profile.gpu_slot_weights,
        )
        self._record_injected = record_injected
        self._injected: list[FailureRecord] = []
        self._next_record_id = 0
        self._contained_multi_gpu = 0
        self._failure_listeners: list = []
        self._record_listeners: list = []

    @property
    def contained_multi_gpu(self) -> int:
        """Would-be multi-GPU failures contained by health tests."""
        return self._contained_multi_gpu

    def add_failure_listener(self, callback) -> None:
        """Register ``callback(node_id, category)`` to run per failure."""
        self._failure_listeners.append(callback)

    def add_record_listener(self, callback) -> None:
        """Register ``callback(record, time_hours)`` to run per failure.

        Receives the full :class:`FailureRecord`, for consumers that
        need involvement details — e.g. streaming predictors.
        """
        self._record_listeners.append(callback)

    @property
    def injected_count(self) -> int:
        """Failures injected so far."""
        return self._next_record_id

    def start(self) -> None:
        """Schedule the first failure."""
        self._schedule_next()

    def injected_log(self) -> FailureLog:
        """Return the injected failures as a validated log.

        Timestamps are offsets from the machine's log start; TTRs are
        the *hands-on* durations handed to the repair service (queueing
        delays live in the cluster history instead).

        Raises:
            SimulationError: If nothing has been injected yet, or if
                record keeping was disabled (``record_injected=False``).
        """
        if self._next_record_id and not self._record_injected:
            raise SimulationError(
                "injected-failure records were disabled "
                "(record_injected=False); re-run with record keeping "
                "on to get an analyzable log"
            )
        if not self._injected:
            raise SimulationError("no failures injected yet")
        from datetime import timedelta

        start = self._spec.log_start
        end = start + timedelta(hours=self._engine.now + 1.0)
        return FailureLog(
            machine=self._profile.machine,
            records=tuple(self._injected),
            window_start=start,
            window_end=end,
        )

    # -- internals -----------------------------------------------------------

    def _schedule_next(self) -> None:
        gap = self._draws.next_gap()
        # Degenerate zero gaps would stall heap ordering determinism.
        self._engine.schedule_in(max(gap, 1e-6), self._fire)

    def _fire(self) -> None:
        draws = self._draws
        category = draws.next_category()
        node_id = self._pick_node()
        gpus: tuple[int, ...] = ()
        if category == "GPU":
            involved = draws.next_involvement()
            if (
                involved > 1
                and draws.next_uniform() < self._health_test_effectiveness
            ):
                # A health test caught the degrading bus-mates early;
                # only one GPU actually fails in service.
                involved = 1
                self._contained_multi_gpu += 1
            if involved > 0:
                gpus = self._choose_slots(involved)
        duration = draws.next_ttr(category)
        if self._cluster.fail(node_id, category, self._engine.now, gpus):
            self._repair.submit(node_id, category, duration)
        self._record(node_id, category, duration, gpus)
        for callback in self._failure_listeners:
            callback(node_id, category)
        self._schedule_next()

    def _choose_slots(self, involved: int) -> tuple[int, ...]:
        num_slots = len(self._profile.gpu_slot_weights)
        if involved == num_slots:
            return tuple(range(num_slots))
        if involved == 1:
            # Single-slot picks (the common case) come from the
            # pre-sampled propensity stream; multi-slot picks need the
            # sequential topology-affinity walk below.
            return (self._draws.next_single_slot(),)
        return choose_slots(
            self._rng,
            involved,
            self._profile.gpu_slot_weights,
            topology=self._topology,
        )

    def _pick_node(self) -> int:
        count = self._cluster.num_available()
        if count:
            # Uniform over healthy nodes via one pre-sampled uniform
            # and the cluster's O(1) index — no fleet-sized list per
            # event.
            index = int(self._draws.next_uniform() * count)
            return self._cluster.available_at(index)
        # Whole fleet down: hit a random node anyway (absorbed outage).
        return int(self._draws.next_uniform() * self._cluster.num_nodes)

    def _record(
        self,
        node_id: int,
        category: str,
        duration: float,
        gpus: tuple[int, ...],
    ) -> None:
        engine = self._engine
        need_record = (
            self._record_injected
            or self._record_listeners
            or engine.has_subscribers("failure")
        )
        self._next_record_id += 1
        if not need_record:
            return
        from datetime import timedelta

        record = FailureRecord(
            record_id=self._next_record_id - 1,
            timestamp=self._spec.log_start
            + timedelta(hours=engine.now),
            node_id=node_id,
            category=category,
            ttr_hours=duration,
            gpus_involved=gpus,
        )
        if self._record_injected:
            self._injected.append(record)
        for callback in self._record_listeners:
            callback(record, engine.now)
        if engine.has_subscribers("failure"):
            engine.publish(
                "failure", record=record, time_hours=engine.now
            )
