"""Low-level sampling helpers shared by the trace generator.

Everything here is deterministic given a :class:`numpy.random.Generator`
so that a seeded trace is bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from itertools import accumulate

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "allocate_counts",
    "weighted_sample_without_replacement",
    "shuffled",
]


def allocate_counts(weights: Mapping[str, float], total: int) -> dict[str, int]:
    """Split ``total`` into integer counts proportional to ``weights``.

    Uses the largest-remainder method, so the result always sums to
    ``total`` exactly and each count is within one of its ideal share.
    This is what lets a generated log reproduce the paper's category
    percentages (44.37% GPU on Tsubame-2, 50.59% software on
    Tsubame-3) without multinomial noise.

    Args:
        weights: Non-negative weights per label; at least one positive.
        total: Non-negative number of items to allocate.

    Raises:
        ValidationError: On negative weights, an all-zero weight map,
            or a negative total.
    """
    if total < 0:
        raise ValidationError(f"total must be non-negative, got {total}")
    if not weights:
        raise ValidationError("weights must be non-empty")
    if any(value < 0 for value in weights.values()):
        raise ValidationError("weights must be non-negative")
    weight_sum = float(sum(weights.values()))
    if weight_sum <= 0:
        raise ValidationError("at least one weight must be positive")

    labels = sorted(weights)
    ideals = {
        label: total * weights[label] / weight_sum for label in labels
    }
    counts = {label: int(np.floor(ideals[label])) for label in labels}
    shortfall = total - sum(counts.values())
    # Hand the leftover units to the largest fractional remainders;
    # ties broken by label so the allocation is deterministic.
    by_remainder = sorted(
        labels, key=lambda label: (-(ideals[label] - counts[label]), label)
    )
    for label in by_remainder[:shortfall]:
        counts[label] += 1
    return counts


def weighted_sample_without_replacement(
    rng: np.random.Generator,
    items: Sequence[int],
    weights: Sequence[float],
    k: int,
) -> list[int]:
    """Draw ``k`` distinct items with probability proportional to weight.

    Sequential weighted draws (the "exponential sort" would also work;
    this explicit loop keeps the weight semantics obvious).  Each draw
    is NumPy's own ``Generator.choice(p=)`` algorithm, unrolled: the
    CDF of ``weight / total`` divided by its last entry, then one
    ``rng.random()`` uniform and a right-sided binary search.  That is
    the same uniform, the same index and the same generator state
    afterwards, without re-validating ``p`` per draw.

    Raises:
        ValidationError: If k exceeds the population or weights are
            invalid.
        ValueError: If the weights left in the pool sum to NaN or
            infinity, as ``choice`` would.
    """
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
            # All remaining weights are zero; fall back to uniform.
            index = int(rng.integers(len(pool)))
        elif total < math.inf:
            cdf = list(accumulate([w / total for w in pool_weights]))
            last = cdf[-1]
            cdf = [value / last for value in cdf]
            index = bisect_right(cdf, rng.random())
        else:
            raise ValueError(
                f"weights must have a finite total, got {total}"
            )
        chosen.append(pool.pop(index))
        pool_weights.pop(index)
    return chosen


def shuffled(rng: np.random.Generator, items: Sequence) -> list:
    """Return a shuffled copy of ``items``."""
    result = list(items)
    rng.shuffle(result)
    return result
