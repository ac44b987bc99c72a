"""GPU involvement: how many and which GPU slots a failure touches.

Reproduces three published observations at once:

* **Table III** — the exact counts of GPU failures involving 1, 2, 3
  (and on Tsubame-3, 4) GPUs, by consuming a fixed multiset of labels.
* **Figure 8** — multi-GPU failures cluster in time.  Labels are
  assigned along the time-ordered GPU failure sequence with a bursty
  Markov rule: right after a multi-GPU failure, the next GPU failure is
  more likely to be multi-GPU again.
* **Figure 5** — slot selection is weighted by the profile's per-slot
  propensities, with a topology affinity bonus: once a slot is chosen,
  slots sharing its PCIe switch / I/O hub are likelier to join the same
  failure ("fallen off the bus" takes out bus-mates together).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.machines.topology import NodeTopology
from repro.synth.sampling import weighted_sample_without_replacement

__all__ = ["assign_involvement_labels", "choose_slots"]


def assign_involvement_labels(
    rng: np.random.Generator,
    involvement_counts: dict[int, int],
    unrecorded: int,
    burst_continue_probability: float,
) -> list[int]:
    """Order the Table III label multiset along the GPU failure sequence.

    Args:
        rng: Seeded generator.
        involvement_counts: k -> number of failures involving exactly k
            GPUs (k >= 1).
        unrecorded: Number of failures with no recorded involvement;
            these get label 0.
        burst_continue_probability: Probability that the failure
            following a multi-GPU failure is drawn from the remaining
            multi-GPU labels (when any remain).  0 disables clustering.

    Returns:
        One label per GPU failure, in time order.  The multiset of
        labels equals the input counts exactly.

    Raises:
        ValidationError: On invalid counts or probability.
    """
    if unrecorded < 0:
        raise ValidationError(
            f"unrecorded must be non-negative, got {unrecorded}"
        )
    if not 0.0 <= burst_continue_probability <= 1.0:
        raise ValidationError(
            "burst_continue_probability must lie in [0, 1]"
        )
    remaining: dict[int, int] = {0: unrecorded}
    for k, count in involvement_counts.items():
        if k < 1:
            raise ValidationError(
                f"involvement keys must be >= 1, got {k}"
            )
        if count < 0:
            raise ValidationError(
                f"involvement counts must be non-negative, got {count}"
            )
        if count:
            remaining[k] = count
    if remaining.get(0, 0) == 0:
        remaining.pop(0, None)
    total = sum(remaining.values())

    labels: list[int] = []
    previous_multi = False
    for _ in range(total):
        multi_pool = {k: c for k, c in remaining.items() if k > 1 and c}
        if (
            previous_multi
            and multi_pool
            and rng.random() < burst_continue_probability
        ):
            pool = multi_pool
        else:
            pool = {k: c for k, c in remaining.items() if c}
        keys = sorted(pool)
        weights = np.asarray([pool[k] for k in keys], dtype=float)
        label = int(rng.choice(keys, p=weights / weights.sum()))
        labels.append(label)
        remaining[label] -= 1
        previous_multi = label > 1
    return labels


def choose_slots(
    rng: np.random.Generator,
    num_involved: int,
    slot_weights: tuple[float, ...],
    topology: NodeTopology | None = None,
    affinity: float = 3.0,
) -> tuple[int, ...]:
    """Pick which GPU slots a failure involves.

    The first slot is drawn by raw propensity; each further slot's
    weight is multiplied by ``affinity`` when it shares a PCIe switch
    or I/O hub with a slot already chosen (topology permitting).

    Args:
        rng: Seeded generator.
        num_involved: Number of distinct slots to pick (>= 1).
        slot_weights: Per-slot propensity, index = slot id.
        topology: Node topology for the affinity bonus; None disables
            it.
        affinity: Multiplier (>= 1) applied to bus-mates of chosen
            slots.

    Raises:
        ValidationError: On invalid arguments.
    """
    num_slots = len(slot_weights)
    if num_involved < 1 or num_involved > num_slots:
        raise ValidationError(
            f"num_involved must be in [1, {num_slots}], got {num_involved}"
        )
    if affinity < 1.0:
        raise ValidationError(f"affinity must be >= 1, got {affinity}")
    if num_involved == num_slots:
        return tuple(range(num_slots))
    if topology is None:
        chosen = weighted_sample_without_replacement(
            rng, list(range(num_slots)), list(slot_weights), num_involved
        )
        return tuple(sorted(chosen))

    chosen: list[int] = []
    near: set[int] = set()  # bus-mates of the slots chosen so far
    available = list(range(num_slots))
    for _ in range(num_involved):
        weights = [
            float(slot_weights[slot]) * affinity
            if slot in near
            else float(slot_weights[slot])
            for slot in available
        ]
        picked = weighted_sample_without_replacement(
            rng, available, weights, 1
        )[0]
        chosen.append(picked)
        available.remove(picked)
        near |= topology.bus_mates[picked]
    return tuple(sorted(chosen))
