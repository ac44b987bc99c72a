"""Tests for the incremental estimators."""

import math

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
        assert "_tuples" not in vars(restored)
        assert restored.n == original.n
        assert restored.value(0.9) == original.value(0.9)
        assert "_tuples" in vars(restored)
        # A push into a sketch whose tuples are not built yet continues
        # exactly where the persisted sketch left off.
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
