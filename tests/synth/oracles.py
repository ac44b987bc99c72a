"""Reference implementations the optimised synth code is checked against.

These are test oracles, not shipped code: each keeps an older, slower
formulation whose outputs the package must still reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from repro.machines.topology import NodeTopology
from repro.synth.sampling import weighted_sample_without_replacement


def choose_slots_graph_walk(
    rng: np.random.Generator,
    num_involved: int,
    slot_weights: tuple[float, ...],
    topology: NodeTopology,
    affinity: float = 3.0,
) -> tuple[int, ...]:
    """:func:`repro.synth.involvement.choose_slots` with a topology,
    asking the networkx graph (``gpus_sharing_switch``) for every
    candidate slot of every pick instead of reading the precomputed
    ``bus_mates`` table.  Arguments are assumed valid."""
    num_slots = len(slot_weights)
    if num_involved == num_slots:
        return tuple(range(num_slots))
    chosen: list[int] = []
    available = list(range(num_slots))
    for _ in range(num_involved):
        weights = []
        for slot in available:
            weight = float(slot_weights[slot])
            if any(
                slot in topology.gpus_sharing_switch(done)
                for done in chosen
            ):
                weight *= affinity
            weights.append(weight)
        picked = weighted_sample_without_replacement(
            rng, available, weights, 1
        )[0]
        chosen.append(picked)
        available.remove(picked)
    return tuple(sorted(chosen))
