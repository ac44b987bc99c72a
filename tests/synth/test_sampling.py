"""Tests for the low-level sampling helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.synth.sampling import (
    allocate_counts,
    shuffled,
    weighted_sample_without_replacement,
)
from tests.synth.oracles import weighted_sample_choice


class TestAllocateCounts:
    def test_exact_proportions(self):
        counts = allocate_counts({"a": 1.0, "b": 3.0}, 100)
        assert counts == {"a": 25, "b": 75}

    def test_sums_to_total(self):
        weights = {"a": 0.17, "b": 0.29, "c": 0.54}
        for total in (0, 1, 7, 97, 1000):
            assert sum(allocate_counts(weights, total).values()) == total

    def test_largest_remainder_rounding(self):
        counts = allocate_counts({"a": 1.0, "b": 1.0, "c": 1.0}, 2)
        assert sum(counts.values()) == 2
        assert max(counts.values()) == 1  # no label gets both units

    def test_within_one_of_ideal(self):
        weights = {"a": 0.4437, "b": 0.0959, "c": 0.4604}
        counts = allocate_counts(weights, 897)
        for label, weight in weights.items():
            ideal = 897 * weight / sum(weights.values())
            assert abs(counts[label] - ideal) < 1.0

    def test_deterministic(self):
        weights = {"x": 1.5, "y": 2.5, "z": 1.0}
        assert allocate_counts(weights, 37) == allocate_counts(weights, 37)

    def test_zero_weight_gets_zero(self):
        counts = allocate_counts({"a": 1.0, "b": 0.0}, 10)
        assert counts == {"a": 10, "b": 0}

    def test_negative_total_rejected(self):
        with pytest.raises(ValidationError):
            allocate_counts({"a": 1.0}, -1)

    def test_empty_weights_rejected(self):
        with pytest.raises(ValidationError):
            allocate_counts({}, 5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            allocate_counts({"a": -1.0}, 5)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            allocate_counts({"a": 0.0, "b": 0.0}, 5)


class TestWeightedSampleWithoutReplacement:
    def test_draws_distinct_items(self):
        rng = np.random.default_rng(0)
        chosen = weighted_sample_without_replacement(
            rng, [0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0], 3
        )
        assert len(chosen) == len(set(chosen)) == 3

    def test_k_equals_population(self):
        rng = np.random.default_rng(0)
        chosen = weighted_sample_without_replacement(
            rng, [5, 6], [1.0, 2.0], 2
        )
        assert sorted(chosen) == [5, 6]

    def test_zero_weight_items_picked_last(self):
        rng = np.random.default_rng(0)
        chosen = weighted_sample_without_replacement(
            rng, [0, 1, 2], [0.0, 0.0, 1.0], 1
        )
        assert chosen == [2]

    def test_weights_bias_selection(self):
        rng = np.random.default_rng(1)
        firsts = [
            weighted_sample_without_replacement(
                rng, [0, 1], [1.0, 9.0], 1
            )[0]
            for _ in range(300)
        ]
        assert 0.8 < np.mean(firsts) < 0.98

    def test_k_too_large_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            weighted_sample_without_replacement(rng, [0], [1.0], 2)

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            weighted_sample_without_replacement(rng, [0, 1], [1.0], 1)

    def test_negative_weight_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            weighted_sample_without_replacement(rng, [0], [-1.0], 1)

    def test_all_zero_weights_fall_back_to_uniform(self):
        rng = np.random.default_rng(0)
        chosen = weighted_sample_without_replacement(
            rng, [0, 1, 2], [0.0, 0.0, 0.0], 2
        )
        assert len(set(chosen)) == 2


def _draw(sample, seed, items, weights, k):
    """(outcome, next uniform): the picks or the exception type, then
    the generator's next ``random()``."""
    rng = np.random.default_rng(seed)
    try:
        outcome = sample(rng, items, weights, k)
    except Exception as error:  # noqa: BLE001 - compared by type
        outcome = type(error)
    return outcome, rng.random()


# Zero, subnormal, ordinary, huge (two of them overflow the total)
# and non-finite weights.
_WEIGHTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e300, 1.7e308, math.inf,
         math.nan]
    ),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestWeightedSampleMatchesChoice:
    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(_WEIGHTS, min_size=1, max_size=9),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_picks_errors_and_generator_state(
        self, weights, data, seed
    ):
        items = list(range(10, 10 + len(weights)))
        k = data.draw(st.integers(0, len(weights)), label="k")
        fast = _draw(weighted_sample_without_replacement, seed, items,
                     weights, k)
        slow = _draw(weighted_sample_choice, seed, items, weights, k)
        assert fast == slow

    @pytest.mark.parametrize(
        "weights", [[1.0, math.inf], [math.nan, 1.0], [1.7e308, 1.7e308]]
    )
    def test_non_finite_total_raises_value_error(self, weights):
        for sample in (weighted_sample_without_replacement,
                       weighted_sample_choice):
            with pytest.raises(ValueError):
                sample(np.random.default_rng(0), [0, 1], weights, 1)


class TestShuffled:
    def test_is_permutation(self):
        rng = np.random.default_rng(0)
        items = list(range(50))
        result = shuffled(rng, items)
        assert sorted(result) == items

    def test_original_untouched(self):
        rng = np.random.default_rng(0)
        items = [1, 2, 3]
        shuffled(rng, items)
        assert items == [1, 2, 3]

    def test_seeded_determinism(self):
        a = shuffled(np.random.default_rng(9), list(range(20)))
        b = shuffled(np.random.default_rng(9), list(range(20)))
        assert a == b
