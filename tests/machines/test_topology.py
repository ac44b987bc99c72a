"""Tests for the Figure 1 node topology graphs."""

import pytest

from repro.errors import MachineError, ValidationError
from repro.machines.components import Component, ComponentKind
from repro.machines.topology import build_node_topology


class TestComponent:
    def test_name(self):
        assert Component(ComponentKind.GPU, 2).name == "gpu2"

    def test_negative_slot_rejected(self):
        with pytest.raises(ValidationError):
            Component(ComponentKind.CPU, -1)

    def test_str_with_model(self):
        component = Component(ComponentKind.GPU, 0, "P100")
        assert str(component) == "gpu0 (P100)"

    def test_str_without_model(self):
        assert str(Component(ComponentKind.NIC, 1)) == "nic1"


class TestTsubame2Topology:
    @pytest.fixture(scope="class")
    def topo(self):
        return build_node_topology("tsubame2")

    def test_three_gpus(self, topo):
        assert topo.gpu_slots == (0, 1, 2)

    def test_two_cpus(self, topo):
        assert len(topo.components(ComponentKind.CPU)) == 2

    def test_gpu0_alone_on_its_hub(self, topo):
        assert topo.gpus_sharing_switch(0) == (0,)

    def test_gpus_1_and_2_share_a_hub(self, topo):
        assert topo.gpus_sharing_switch(1) == (1, 2)
        assert topo.gpus_sharing_switch(2) == (1, 2)

    def test_no_nvlink_on_k20x(self, topo):
        for slot in (0, 1, 2):
            assert topo.nvlink_peers(slot) == ()

    def test_two_ib_nics(self, topo):
        assert len(topo.components(ComponentKind.NIC)) == 2

    def test_hop_distance_same_hub_shorter(self, topo):
        assert topo.hop_distance(1, 2) < topo.hop_distance(0, 1)


class TestTsubame3Topology:
    @pytest.fixture(scope="class")
    def topo(self):
        return build_node_topology("tsubame3")

    def test_four_gpus(self, topo):
        assert topo.gpu_slots == (0, 1, 2, 3)

    def test_switch_pairs(self, topo):
        assert topo.gpus_sharing_switch(0) == (0, 1)
        assert topo.gpus_sharing_switch(3) == (2, 3)

    def test_nvlink_full_mesh(self, topo):
        for slot in range(4):
            peers = topo.nvlink_peers(slot)
            assert peers == tuple(s for s in range(4) if s != slot)

    def test_four_omnipath_ports(self, topo):
        # Table I: "Intel Omni-Path HFI 100Gbps - 4 ports".
        assert len(topo.components(ComponentKind.NIC)) == 4

    def test_nvlink_makes_all_gpus_adjacent(self, topo):
        assert topo.hop_distance(0, 3) == 1


class TestTopologyErrors:
    def test_unknown_machine(self):
        with pytest.raises(MachineError):
            build_node_topology("tsubame1")

    def test_unknown_gpu_slot(self):
        topo = build_node_topology("tsubame2")
        with pytest.raises(MachineError):
            topo.gpus_sharing_switch(7)
        with pytest.raises(MachineError):
            topo.nvlink_peers(7)
        with pytest.raises(MachineError):
            topo.hop_distance(0, 9)


@pytest.mark.parametrize("machine", ["tsubame2", "tsubame3", "a100", "h100"])
def test_bus_mate_table_matches_graph(machine):
    topo = build_node_topology(machine)
    assert len(topo.bus_mates) == len(topo.gpu_slots)
    for slot in topo.gpu_slots:
        assert topo.bus_mates[slot] == frozenset(
            topo.gpus_sharing_switch(slot)
        )
