"""Fault injection for the simulator.

Streams failures into a running simulation with the same calibrated
statistics the trace generator uses: Weibull renewal arrivals, the
profile's category mix, GPU involvement and per-category lognormal
repair durations.  Unlike the offline generator, the injector reacts
to cluster state — failures land on nodes that are currently up.

Per-failure draws are pre-sampled in vectorized NumPy batches and
handed to the event loop as plain Python scalars by C iterators, so a
draw costs no Python frame.  A failure on some but not all of a node's
GPUs also draws from the ``Generator`` once per slot, reading
bus-mates from the topology's precomputed ``bus_mates`` table.
Paired with the cluster's O(1) healthy-node index this is what makes
Monte-Carlo replication fast.  Runs are bit-reproducible for a seed.
"""

from __future__ import annotations

from datetime import timedelta
from itertools import chain

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


def _stream(fill):
    """A draw stream: each call returns the next pre-sampled draw.

    ``fill`` returns a *list* of Python scalars (``ndarray.tolist()``)
    so consumers get native floats/ints, not NumPy scalars.  The
    stream is the C iterator ``chain.from_iterable(iter(fill, None))``:
    it calls ``fill`` only when the previous list is used up, so the
    RNG sees the same calls in the same order as an index into a
    refilled buffer, without a Python frame per draw.
    """
    return chain.from_iterable(iter(fill, None)).__next__


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
        self._rng = rng = np.random.default_rng(seed)
        self._spec = get_machine(profile.machine)
        self._topology = build_node_topology(profile.machine)
        # Every per-failure random quantity is a _stream of draws
        # pre-sampled in vectorized batches.
        renewal = calibrate_weibull(
            mean_hours=profile.tbf_mean_hours / intensity,
            p75_hours=profile.tbf_p75_hours / intensity,
        )
        self._next_gap = _stream(
            lambda: renewal.sample_gaps(rng, _BATCH).tolist()
        )
        names = sorted(profile.category_counts)
        weights = np.asarray(
            [profile.category_counts[name] for name in names], dtype=float
        )
        category_probabilities = weights / weights.sum()
        self._next_category = _stream(
            lambda: [
                names[i]
                for i in rng.choice(
                    len(names), size=_BATCH, p=category_probabilities
                )
            ]
        )
        recorded = sum(profile.gpu_involvement_counts.values())
        total_gpu = recorded + profile.gpu_involvement_unrecorded
        involvement = np.asarray(
            [0] + sorted(profile.gpu_involvement_counts)
        )
        involvement_probabilities = np.asarray(
            [profile.gpu_involvement_unrecorded / total_gpu]
            + [
                profile.gpu_involvement_counts[k] / total_gpu
                for k in sorted(profile.gpu_involvement_counts)
            ]
        )
        self._next_involvement = _stream(
            lambda: rng.choice(
                involvement, size=_SMALL_BATCH, p=involvement_probabilities
            ).tolist()
        )
        self._next_uniform = _stream(lambda: rng.random(_BATCH).tolist())
        self._next_ttr = {
            name: _stream(
                lambda s=LognormalTtrSampler(
                    profile.category_ttr_mean_hours[name],
                    profile.category_ttr_sigma[name],
                ): s.sample_batch(rng, _SMALL_BATCH).tolist()
            )
            for name in names
        }
        # Single-slot picks by raw propensity: the ``num_involved == 1``
        # case of ``choose_slots``.
        slot_weights = np.asarray(profile.gpu_slot_weights, dtype=float)
        slot_probabilities = slot_weights / slot_weights.sum()
        self._next_single_slot = _stream(
            lambda: rng.choice(
                len(slot_weights), size=_SMALL_BATCH, p=slot_probabilities
            ).tolist()
        )
        self._record_injected = record_injected
        self._injected: list[FailureRecord] = []
        self._next_record_id = 0
        self._contained_multi_gpu = 0
        self._on_failure = engine.subscribers("failure")
        self._on_node_failed = engine.subscribers("node_failed")

    @property
    def contained_multi_gpu(self) -> int:
        """Would-be multi-GPU failures contained by health tests."""
        return self._contained_multi_gpu

    @property
    def injected_count(self) -> int:
        """Failures injected so far."""
        return self._next_record_id

    def start(self) -> None:
        """Schedule the first failure."""
        # Degenerate zero gaps would stall heap ordering determinism.
        self._engine.schedule_in(max(self._next_gap(), 1e-6), self._fire)

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
        start = self._spec.log_start
        end = start + timedelta(hours=self._engine.now + 1.0)
        return FailureLog(
            machine=self._profile.machine,
            records=tuple(self._injected),
            window_start=start,
            window_end=end,
        )

    # -- internals -----------------------------------------------------------

    def _fire(self) -> None:
        engine = self._engine
        now = engine.now
        category = self._next_category()
        # Uniform over healthy nodes (any node when the whole fleet is
        # down) from one pre-sampled uniform: no fleet-sized list.
        cluster = self._cluster
        node_id = cluster.random_node(self._next_uniform())
        gpus: tuple[int, ...] = ()
        if category == "GPU":
            involved = self._next_involvement()
            if (
                involved > 1
                and self._next_uniform() < self._health_test_effectiveness
            ):
                # A health test caught the degrading bus-mates early;
                # only one GPU actually fails in service.
                involved = 1
                self._contained_multi_gpu += 1
            if involved > 0:
                gpus = self._choose_slots(involved)
        duration = self._next_ttr[category]()
        if cluster.fail(node_id, category, now, gpus):
            self._repair.submit(node_id, category, duration)
        self._next_record_id += 1
        if self._record_injected or self._on_failure:
            self._record(node_id, category, duration, gpus, now)
        for callback in self._on_node_failed:
            callback(node_id, category)
        gap = self._next_gap()
        engine.schedule_in(gap if gap > 1e-6 else 1e-6, self._fire)

    def _choose_slots(self, involved: int) -> tuple[int, ...]:
        num_slots = len(self._profile.gpu_slot_weights)
        if involved == num_slots:
            return tuple(range(num_slots))
        if involved == 1:
            # Single-slot picks (the common case) come from the
            # pre-sampled propensity stream; multi-slot picks need the
            # sequential topology-affinity walk below.
            return (self._next_single_slot(),)
        return choose_slots(
            self._rng,
            involved,
            self._profile.gpu_slot_weights,
            topology=self._topology,
        )

    def _record(
        self,
        node_id: int,
        category: str,
        duration: float,
        gpus: tuple[int, ...],
        now: float,
    ) -> None:
        record = FailureRecord(
            record_id=self._next_record_id - 1,
            timestamp=self._spec.log_start + timedelta(hours=now),
            node_id=node_id,
            category=category,
            ttr_hours=duration,
            gpus_involved=gpus,
        )
        if self._record_injected:
            self._injected.append(record)
        for callback in self._on_failure:
            callback(record, now)
