"""Tests for node placement and GPU involvement assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CalibrationError, ValidationError
from repro.machines.topology import build_node_topology
from repro.synth.involvement import assign_involvement_labels, choose_slots
from repro.synth.profiles import profile_for
from repro.synth.placement import (
    assign_failures_to_nodes,
    sample_node_multiplicities,
)
from tests.synth.oracles import choose_slots_graph_walk


class TestSampleNodeMultiplicities:
    def test_sums_to_total(self):
        rng = np.random.default_rng(0)
        counts = sample_node_multiplicities(
            rng, {1: 0.6, 2: 0.4}, total_failures=500, num_nodes=1000
        )
        assert sum(counts) == 500

    def test_histogram_roughly_matches(self):
        rng = np.random.default_rng(1)
        counts = sample_node_multiplicities(
            rng, {1: 0.6, 3: 0.4}, total_failures=2000, num_nodes=5000
        )
        ones = sum(1 for c in counts if c == 1)
        assert ones / len(counts) == pytest.approx(0.6, abs=0.06)

    def test_last_draw_clipped(self):
        rng = np.random.default_rng(2)
        counts = sample_node_multiplicities(
            rng, {5: 1.0}, total_failures=12, num_nodes=100
        )
        assert sum(counts) == 12
        assert counts[-1] <= 5

    def test_too_few_nodes_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(CalibrationError):
            sample_node_multiplicities(
                rng, {1: 1.0}, total_failures=50, num_nodes=10
            )

    def test_invalid_inputs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            sample_node_multiplicities(rng, {1: 1.0}, 0, 10)
        with pytest.raises(ValidationError):
            sample_node_multiplicities(rng, {}, 5, 10)
        with pytest.raises(ValidationError):
            sample_node_multiplicities(rng, {1: 1.0}, 5, 0)


class TestAssignFailuresToNodes:
    def test_every_failure_gets_a_node(self):
        rng = np.random.default_rng(0)
        is_software = [False] * 8 + [True] * 2
        nodes = assign_failures_to_nodes(
            rng, is_software, [3, 3, 1, 1, 1, 1], num_nodes=100,
            multi_node_software_share=0.0,
        )
        assert len(nodes) == 10

    def test_multiplicity_histogram_realised(self):
        rng = np.random.default_rng(1)
        is_software = [False] * 10
        nodes = assign_failures_to_nodes(
            rng, is_software, [4, 3, 1, 1, 1], num_nodes=50,
            multi_node_software_share=0.0,
        )
        from collections import Counter

        counts = sorted(Counter(nodes).values(), reverse=True)
        assert counts == [4, 3, 1, 1, 1]

    def test_zero_share_keeps_software_off_multi_nodes(self):
        rng = np.random.default_rng(2)
        is_software = [True] * 5 + [False] * 5
        nodes = assign_failures_to_nodes(
            rng, is_software, [5, 1, 1, 1, 1, 1], num_nodes=50,
            multi_node_software_share=0.0,
        )
        from collections import Counter

        multi_node = Counter(nodes).most_common(1)[0][0]
        software_on_multi = sum(
            1
            for index, node in enumerate(nodes)
            if node == multi_node and is_software[index]
        )
        assert software_on_multi == 0

    def test_high_share_puts_software_on_multi_nodes(self):
        rng = np.random.default_rng(3)
        is_software = [True] * 6 + [False] * 4
        nodes = assign_failures_to_nodes(
            rng, is_software, [3, 3, 1, 1, 1, 1], num_nodes=50,
            multi_node_software_share=1.0,
        )
        from collections import Counter

        tallies = Counter(nodes)
        multi_nodes = {n for n, c in tallies.items() if c > 1}
        software_on_multi = sum(
            1
            for index, node in enumerate(nodes)
            if node in multi_nodes and is_software[index]
        )
        assert software_on_multi == 6

    def test_shortfall_of_hardware_topped_up_with_software(self):
        rng = np.random.default_rng(4)
        # 6 multi slots but only 2 hardware failures.
        is_software = [True] * 6 + [False] * 2
        nodes = assign_failures_to_nodes(
            rng, is_software, [3, 3, 1, 1], num_nodes=50,
            multi_node_software_share=0.0,
        )
        assert len(nodes) == 8  # completes despite the shortfall

    def test_mismatched_multiplicities_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            assign_failures_to_nodes(
                rng, [False, False], [3], num_nodes=10,
                multi_node_software_share=0.0,
            )

    def test_bad_share_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            assign_failures_to_nodes(
                rng, [False], [1], num_nodes=10,
                multi_node_software_share=1.5,
            )


class TestAssignInvolvementLabels:
    def test_multiset_preserved(self):
        rng = np.random.default_rng(0)
        labels = assign_involvement_labels(
            rng, {1: 10, 2: 5, 3: 3}, unrecorded=2,
            burst_continue_probability=0.5,
        )
        from collections import Counter

        assert Counter(labels) == {1: 10, 2: 5, 3: 3, 0: 2}

    def test_bursting_clusters_multi_labels(self):
        rng = np.random.default_rng(1)
        labels = assign_involvement_labels(
            rng, {1: 200, 2: 50}, unrecorded=0,
            burst_continue_probability=0.9,
        )
        # Count multi -> multi transitions; with bursting they exceed
        # the exchangeable expectation (50/250 of follow-ups).
        followups = [
            labels[i + 1] > 1
            for i in range(len(labels) - 1)
            if labels[i] > 1
        ]
        assert np.mean(followups) > 0.5

    def test_zero_burst_is_exchangeable(self):
        rng = np.random.default_rng(2)
        labels = assign_involvement_labels(
            rng, {1: 300, 2: 100}, unrecorded=0,
            burst_continue_probability=0.0,
        )
        followups = [
            labels[i + 1] > 1
            for i in range(len(labels) - 1)
            if labels[i] > 1
        ]
        assert np.mean(followups) == pytest.approx(0.25, abs=0.12)

    def test_empty_counts_ok(self):
        rng = np.random.default_rng(0)
        assert assign_involvement_labels(rng, {}, 0, 0.5) == []

    def test_invalid_inputs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            assign_involvement_labels(rng, {0: 5}, 0, 0.5)
        with pytest.raises(ValidationError):
            assign_involvement_labels(rng, {1: -1}, 0, 0.5)
        with pytest.raises(ValidationError):
            assign_involvement_labels(rng, {1: 1}, -1, 0.5)
        with pytest.raises(ValidationError):
            assign_involvement_labels(rng, {1: 1}, 0, 1.5)


class TestChooseSlots:
    def test_all_slots_when_full_involvement(self):
        rng = np.random.default_rng(0)
        assert choose_slots(rng, 3, (1.0, 1.0, 1.0)) == (0, 1, 2)

    def test_distinct_sorted_slots(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            slots = choose_slots(rng, 2, (1.0, 2.0, 1.0, 2.0))
            assert len(set(slots)) == 2
            assert slots == tuple(sorted(slots))

    def test_weights_bias_singles(self):
        rng = np.random.default_rng(2)
        picks = [
            choose_slots(rng, 1, (1.0, 8.0, 1.0))[0] for _ in range(400)
        ]
        assert picks.count(1) > 250

    def test_topology_affinity_pulls_busmates(self):
        rng = np.random.default_rng(3)
        topo = build_node_topology("tsubame3")  # switches {0,1}, {2,3}
        same_switch = 0
        trials = 300
        for _ in range(trials):
            slots = choose_slots(
                rng, 2, (1.0, 1.0, 1.0, 1.0), topology=topo, affinity=8.0
            )
            if slots in ((0, 1), (2, 3)):
                same_switch += 1
        assert same_switch / trials > 0.6  # uniform would give ~1/3

    def test_invalid_args_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            choose_slots(rng, 0, (1.0, 1.0))
        with pytest.raises(ValidationError):
            choose_slots(rng, 3, (1.0, 1.0))
        with pytest.raises(ValidationError):
            choose_slots(rng, 1, (1.0, 1.0), affinity=0.5)


MACHINES = ["tsubame2", "tsubame3", "a100", "h100"]


class TestChooseSlotsMatchesGraphWalk:
    """The bus-mate table path must reproduce the graph walk exactly:
    the same slots and the same generator state afterwards."""

    @settings(max_examples=60, deadline=None)
    @given(
        machine=st.sampled_from(MACHINES),
        affinity=st.sampled_from([1.0, 1.5, 3.0, 8.0]),
        seed=st.integers(0, 2**32 - 1),
        profile_weights=st.booleans(),
    )
    def test_same_slots_and_rng_state(
        self, machine, affinity, seed, profile_weights
    ):
        topology = build_node_topology(machine)
        num_slots = len(topology.gpu_slots)
        weights = (
            profile_for(machine).gpu_slot_weights
            if profile_weights
            else tuple(1.0 for _ in range(num_slots))
        )
        fast = np.random.default_rng(seed)
        slow = np.random.default_rng(seed)
        for num_involved in range(1, num_slots + 1):
            assert choose_slots(
                fast, num_involved, weights,
                topology=topology, affinity=affinity,
            ) == choose_slots_graph_walk(
                slow, num_involved, weights, topology, affinity
            )
            assert fast.random() == slow.random()
