"""Tests for the incremental estimators."""

import math
import random

import numpy as np
import pytest

from repro.errors import StreamError
from repro.stream.online import (
    EwmaRate,
    GKQuantileSketch,
    OnlineMtbf,
    OnlineMttr,
    RollingWindowStats,
    Welford,
)


class TestWelford:
    def test_matches_numpy_mean_and_variance(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(1.0, 1.5, size=500)
        acc = Welford()
        for value in values:
            acc.push(float(value))
        assert acc.n == 500
        assert acc.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert acc.variance == pytest.approx(
            float(np.var(values, ddof=1)), rel=1e-10
        )
        assert acc.std == pytest.approx(math.sqrt(acc.variance))

    def test_degenerate_cases(self):
        acc = Welford()
        assert acc.mean == 0.0 and acc.variance == 0.0
        acc.push(3.0)
        assert acc.mean == 3.0
        assert acc.variance == 0.0


def _rank_error(sorted_values, estimate, q):
    """1-based rank distance between the estimate and ceil(q*n)."""
    import bisect

    n = len(sorted_values)
    target = max(1, math.ceil(q * n))
    lo = bisect.bisect_left(sorted_values, estimate)
    hi = bisect.bisect_right(sorted_values, estimate)
    if lo + 1 <= target <= hi:
        return 0
    return min(abs(target - (lo + 1)), abs(target - hi))


class TestGKQuantileSketch:
    def test_rejects_bad_epsilon(self):
        for epsilon in (0.0, 0.5, -0.1):
            with pytest.raises(StreamError):
                GKQuantileSketch(epsilon)

    def test_no_observations_raises(self):
        with pytest.raises(StreamError):
            GKQuantileSketch().value(0.5)

    @pytest.mark.parametrize("q", [0.01, 0.25, 0.5, 0.75, 0.99])
    def test_rank_error_within_epsilon(self, q):
        rng = np.random.default_rng(3)
        values = rng.lognormal(2.0, 1.0, size=8000)
        sketch = GKQuantileSketch(epsilon=0.01)
        for value in values:
            sketch.push(float(value))
        estimate = sketch.value(q)
        error = _rank_error(sorted(values), estimate, q)
        assert error <= math.ceil(0.01 * len(values)) + 1

    def test_adversarial_sorted_input(self):
        sketch = GKQuantileSketch(epsilon=0.01)
        n = 5000
        for i in range(n):
            sketch.push(float(i))
        estimate = sketch.value(0.5)
        assert abs(estimate - n / 2) <= 0.02 * n

    def test_memory_stays_sublinear(self):
        sketch = GKQuantileSketch(epsilon=0.01)
        rng = np.random.default_rng(4)
        for value in rng.random(20000):
            sketch.push(float(value))
        # An exact structure would hold 20000 entries.
        assert sketch.size < 2000

    def test_restored_sketch_builds_its_tuples_on_first_use(self):
        rng = np.random.default_rng(5)
        original = GKQuantileSketch(epsilon=0.01)
        original.push_many(rng.random(3000).tolist())
        state = original.state()
        restored = GKQuantileSketch.from_state(state)
        assert restored.n == original.n
        assert restored.value(0.9) == original.value(0.9)
        # A push into a restored sketch continues exactly where the
        # persisted sketch left off.
        values = rng.random(500).tolist()
        pushed = GKQuantileSketch.from_state(state)
        pushed.push_many(values)
        original.push_many(values)
        assert pushed.state() == original.state()


class TestRollingWindowStats:
    def test_rejects_bad_window(self):
        with pytest.raises(StreamError):
            RollingWindowStats(0.0)

    def test_eviction(self):
        window = RollingWindowStats(10.0)
        window.push(0.0, 1.0)
        window.push(5.0, 3.0)
        assert window.count == 2
        assert window.mean == 2.0
        window.advance_to(12.0)
        assert window.count == 1
        assert window.mean == 3.0
        window.advance_to(100.0)
        assert window.count == 0
        assert window.mean is None

    def test_time_regression_rejected(self):
        window = RollingWindowStats(10.0)
        window.push(5.0, 1.0)
        with pytest.raises(StreamError):
            window.push(4.0, 1.0)


class TestEwmaRate:
    def test_poisson_rate_recovery(self):
        rng = np.random.default_rng(5)
        rate = 0.2  # events per hour
        times = np.cumsum(rng.exponential(1.0 / rate, size=4000))
        ewma = EwmaRate(tau_hours=200.0)
        for t in times:
            ewma.push(float(t))
        assert ewma.rate_per_hour() == pytest.approx(rate, rel=0.25)

    def test_decay_to_zero(self):
        ewma = EwmaRate(tau_hours=10.0)
        ewma.push(0.0)
        assert ewma.rate_per_hour(1000.0) < 1e-6


class TestOnlineMtbfMttr:
    def test_gap_mean_matches_batch(self):
        times = [0.0, 4.0, 10.0, 11.0, 30.0]
        online = OnlineMtbf()
        gaps = []
        for t in times:
            gap = online.push_failure(t)
            if gap is not None:
                gaps.append(gap)
        assert online.mtbf_hours == pytest.approx(float(np.mean(gaps)))
        assert online.failures == 5
        assert online.mtbf_span_hours(100.0) == pytest.approx(20.0)

    def test_first_failure_yields_no_gap(self):
        online = OnlineMtbf()
        assert online.push_failure(3.0) is None
        assert online.mtbf_hours is None

    def test_backwards_failure_rejected(self):
        online = OnlineMtbf()
        online.push_failure(10.0)
        with pytest.raises(StreamError):
            online.push_failure(9.0)

    def test_mttr_running_mean(self):
        online = OnlineMttr()
        assert online.mttr_hours is None
        for ttr in [10.0, 20.0, 60.0]:
            online.push_ttr(ttr)
        assert online.mttr_hours == pytest.approx(30.0)
        with pytest.raises(StreamError):
            online.push_ttr(-1.0)


class TestPushMany:
    def test_welford_bit_identical_to_push_loop(self):
        values = np.random.default_rng(0).lognormal(2.0, 1.0, 500)
        single = Welford()
        for v in values:
            single.push(float(v))
        batched = Welford()
        batched.push_many(float(v) for v in values[:200])
        batched.push_many(float(v) for v in values[200:])
        assert batched.n == single.n
        assert batched.mean == single.mean
        assert batched.variance == single.variance

    def test_welford_array_list_and_loop_states_equal(self):
        values = np.random.default_rng(2).lognormal(1.0, 2.0, 897)
        from_array, from_list, looped = Welford(), Welford(), Welford()
        from_array.push_many(values[:400])
        from_array.push_many(values[400:])
        from_list.push_many(values.tolist())
        for v in values.tolist():
            looped.push(v)
        assert from_array.state() == from_list.state() == looped.state()
        # The state holds Python floats, not NumPy scalars.
        assert type(from_array.state()["mean"]) is float

    def test_gk_bit_identical_to_push_loop(self):
        values = np.random.default_rng(1).exponential(10.0, 800)
        single = GKQuantileSketch()
        for v in values:
            single.push(float(v))
        batched = GKQuantileSketch()
        batched.push_many(float(v) for v in values)
        assert batched.n == single.n
        assert batched.size == single.size
        for q in (0.1, 0.5, 0.9, 0.99):
            assert batched.value(q) == single.value(q)


class TestWelfordMerge:
    def test_merged_matches_single_pass(self):
        rng = random.Random(11)
        values = [rng.gauss(50.0, 12.0) for _ in range(9000)]
        parts = [Welford() for _ in range(4)]
        for i, value in enumerate(values):
            parts[i % 4].push(value)
        merged = Welford.merged(parts)
        exact = Welford()
        exact.push_many(values)
        assert merged.n == exact.n
        assert merged.mean == pytest.approx(exact.mean, rel=1e-12)
        assert merged.std == pytest.approx(exact.std, rel=1e-9)

    def test_empty_and_singleton_edges(self):
        assert Welford.merged([]).n == 0
        solo = Welford()
        solo.push(3.0)
        merged = Welford.merged([Welford(), solo, Welford()])
        assert merged.n == 1
        assert merged.mean == 3.0


class TestSketchMerge:
    def test_merged_rank_error_within_summed_epsilon(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(1.0, 0.8) for _ in range(8000)]
        sketches = [GKQuantileSketch(epsilon=0.01) for _ in range(4)]
        for i, value in enumerate(values):
            sketches[i % 4].push(value)
        merged = GKQuantileSketch.merged(sketches)
        assert merged.n == len(values)
        assert merged.epsilon == pytest.approx(0.04)
        ordered = sorted(values)
        for q in (0.1, 0.5, 0.9, 0.99):
            estimate = merged.value(q)
            rank = sum(1 for v in ordered if v <= estimate)
            error = abs(rank - q * len(values)) / len(values)
            assert error <= merged.epsilon + 1e-9, (q, error)

    def test_merge_of_one_is_identity(self):
        sketch = GKQuantileSketch(epsilon=0.01)
        for value in range(100):
            sketch.push(float(value))
        merged = GKQuantileSketch.merged([sketch])
        assert merged.value(0.5) == pytest.approx(
            sketch.value(0.5)
        )
