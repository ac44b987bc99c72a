"""Reference implementations the optimised synth code is checked against.

These are test oracles, not shipped code: each keeps an older, slower
formulation whose outputs the package must still reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.machines.topology import NodeTopology
from repro.synth.sampling import weighted_sample_without_replacement


def weighted_sample_choice(
    rng: np.random.Generator,
    items,
    weights,
    k: int,
) -> list[int]:
    """:func:`repro.synth.sampling.weighted_sample_without_replacement`
    drawing each item with ``rng.choice(p=)``, which validates and
    normalizes ``p`` and builds its CDF on every call."""
    if k < 0:
        raise ValidationError(f"k must be non-negative, got {k}")
    if k > len(items):
        raise ValidationError(
            f"cannot draw {k} distinct items from {len(items)}"
        )
    if len(items) != len(weights):
        raise ValidationError(
            f"items ({len(items)}) and weights ({len(weights)}) must have "
            f"equal length"
        )
    if any(w < 0 for w in weights):
        raise ValidationError("weights must be non-negative")
    pool = list(items)
    pool_weights = [float(w) for w in weights]
    chosen: list[int] = []
    for _ in range(k):
        total = sum(pool_weights)
        if total <= 0:
            index = int(rng.integers(len(pool)))
        else:
            probabilities = [w / total for w in pool_weights]
            index = int(rng.choice(len(pool), p=probabilities))
        chosen.append(pool.pop(index))
        pool_weights.pop(index)
    return chosen


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
