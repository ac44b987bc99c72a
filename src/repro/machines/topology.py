"""Node topology graphs (Figure 1).

The paper's Figure 1 sketches the hardware topology of a compute node
on each machine.  We model it as an undirected networkx graph whose
vertices are :class:`~repro.machines.components.Component` names:

* **Tsubame-2**: two Westmere sockets; GPU 0 hangs off CPU 0's I/O hub,
  GPUs 1 and 2 off CPU 1's; one InfiniBand NIC (2 ports) per I/O hub.
* **Tsubame-3**: two Broadwell sockets, each feeding a PLX PCIe switch;
  each switch connects two SXM2 P100s; the four GPUs are additionally
  fully meshed with NVLink; four Omni-Path ports, two per switch.

Topology queries back the spatial analyses: GPU slots that share a
switch/socket form natural correlation domains for simultaneous
multi-GPU failures (RQ3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import networkx as nx

from repro.errors import MachineError
from repro.machines.components import Component, ComponentKind
from repro.machines.specs import MachineSpec, get_machine

__all__ = ["NodeTopology", "build_node_topology"]


@dataclass(frozen=True)
class NodeTopology:
    """A node's hardware topology graph with convenience queries."""

    machine: str
    graph: nx.Graph = field(repr=False)
    #: ``bus_mates[slot] == frozenset(gpus_sharing_switch(slot))``,
    #: derived once so multi-GPU slot picks never walk the graph.
    bus_mates: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        bus_mates = tuple(
            frozenset(self.gpus_sharing_switch(slot))
            for slot in self.gpu_slots
        )
        object.__setattr__(self, "bus_mates", bus_mates)

    def components(self, kind: ComponentKind) -> list[Component]:
        """Return all components of one kind, sorted by slot."""
        found = [
            data["component"]
            for _, data in self.graph.nodes(data=True)
            if data["component"].kind is kind
        ]
        return sorted(found, key=lambda c: c.slot)

    @property
    def gpu_slots(self) -> tuple[int, ...]:
        """GPU slot indices present in the topology."""
        return tuple(c.slot for c in self.components(ComponentKind.GPU))

    def gpus_sharing_switch(self, gpu_slot: int) -> tuple[int, ...]:
        """Return GPU slots reachable from ``gpu_slot`` through one
        PCIe switch or I/O hub (including the slot itself).

        These are the slots most likely to fail together through a
        shared bus — the "fallen off the bus" multi-GPU failure mode
        the paper reports.
        """
        name = f"gpu{gpu_slot}"
        if name not in self.graph:
            raise MachineError(
                f"no GPU slot {gpu_slot} on machine {self.machine!r}"
            )
        shared: set[int] = set()
        for neighbor in self.graph.neighbors(name):
            kind = self.graph.nodes[neighbor]["component"].kind
            if kind not in (ComponentKind.PCIE_SWITCH, ComponentKind.CPU):
                continue
            for peer in self.graph.neighbors(neighbor):
                component = self.graph.nodes[peer]["component"]
                if component.kind is ComponentKind.GPU:
                    shared.add(component.slot)
        return tuple(sorted(shared))

    def nvlink_peers(self, gpu_slot: int) -> tuple[int, ...]:
        """Return GPU slots directly linked to ``gpu_slot`` by NVLink."""
        name = f"gpu{gpu_slot}"
        if name not in self.graph:
            raise MachineError(
                f"no GPU slot {gpu_slot} on machine {self.machine!r}"
            )
        peers = []
        for neighbor in self.graph.neighbors(name):
            component = self.graph.nodes[neighbor]["component"]
            if component.kind is ComponentKind.GPU:
                peers.append(component.slot)
        return tuple(sorted(peers))

    def hop_distance(self, first_gpu: int, second_gpu: int) -> int:
        """Shortest-path hop count between two GPU slots."""
        src, dst = f"gpu{first_gpu}", f"gpu{second_gpu}"
        for name in (src, dst):
            if name not in self.graph:
                raise MachineError(
                    f"no component {name!r} on machine {self.machine!r}"
                )
        return int(nx.shortest_path_length(self.graph, src, dst))


def _add(graph: nx.Graph, component: Component) -> str:
    graph.add_node(component.name, component=component)
    return component.name


def _build_tsubame2(spec: MachineSpec) -> nx.Graph:
    graph = nx.Graph()
    board = _add(graph, Component(ComponentKind.SYSTEM_BOARD, 0, "HP SL390s"))
    cpus = [
        _add(graph, Component(ComponentKind.CPU, i, spec.cpu_model))
        for i in range(spec.cpus_per_node)
    ]
    memories = [
        _add(graph, Component(ComponentKind.MEMORY, i, f"{spec.memory_gb}GB"))
        for i in range(spec.cpus_per_node)
    ]
    # I/O hubs stand in for the Westmere-era Tylersburg chipset.
    hubs = [
        _add(graph, Component(ComponentKind.PCIE_SWITCH, i, "Tylersburg IOH"))
        for i in range(2)
    ]
    gpus = [
        _add(graph, Component(ComponentKind.GPU, i, spec.gpu_model))
        for i in range(spec.gpus_per_node)
    ]
    nics = [
        _add(graph, Component(ComponentKind.NIC, i, "4X QDR InfiniBand"))
        for i in range(2)
    ]
    ssd = _add(graph, Component(ComponentKind.SSD, 0, spec.ssd))

    for cpu, memory, hub in zip(cpus, memories, hubs):
        graph.add_edge(board, cpu)
        graph.add_edge(cpu, memory)
        graph.add_edge(cpu, hub)
    graph.add_edge(cpus[0], cpus[1])  # QPI
    # GPU 0 on socket 0's hub; GPUs 1 and 2 on socket 1's hub.
    graph.add_edge(hubs[0], gpus[0])
    graph.add_edge(hubs[1], gpus[1])
    graph.add_edge(hubs[1], gpus[2])
    graph.add_edge(hubs[0], nics[0])
    graph.add_edge(hubs[1], nics[1])
    graph.add_edge(hubs[0], ssd)
    return graph


def _build_tsubame3(spec: MachineSpec) -> nx.Graph:
    graph = nx.Graph()
    board = _add(graph, Component(ComponentKind.SYSTEM_BOARD, 0,
                                  "SGI ICE XA"))
    cpus = [
        _add(graph, Component(ComponentKind.CPU, i, spec.cpu_model))
        for i in range(spec.cpus_per_node)
    ]
    memories = [
        _add(graph, Component(ComponentKind.MEMORY, i, f"{spec.memory_gb}GB"))
        for i in range(spec.cpus_per_node)
    ]
    switches = [
        _add(graph, Component(ComponentKind.PCIE_SWITCH, i, "PLX PEX9700"))
        for i in range(2)
    ]
    gpus = [
        _add(graph, Component(ComponentKind.GPU, i, spec.gpu_model))
        for i in range(spec.gpus_per_node)
    ]
    nics = [
        _add(graph, Component(ComponentKind.NIC, i, "Omni-Path HFI 100Gbps"))
        for i in range(4)
    ]
    ssd = _add(graph, Component(ComponentKind.SSD, 0, spec.ssd))

    for cpu, memory, switch in zip(cpus, memories, switches):
        graph.add_edge(board, cpu)
        graph.add_edge(cpu, memory)
        graph.add_edge(cpu, switch)
    graph.add_edge(cpus[0], cpus[1])  # QPI
    # Each PLX switch feeds two SXM2 GPUs: {0, 1} and {2, 3}.
    graph.add_edge(switches[0], gpus[0])
    graph.add_edge(switches[0], gpus[1])
    graph.add_edge(switches[1], gpus[2])
    graph.add_edge(switches[1], gpus[3])
    # NVLink full mesh among the four P100s.
    for i in range(4):
        for j in range(i + 1, 4):
            graph.add_edge(gpus[i], gpus[j], link="nvlink")
    # Two Omni-Path ports per switch.
    graph.add_edge(switches[0], nics[0])
    graph.add_edge(switches[0], nics[1])
    graph.add_edge(switches[1], nics[2])
    graph.add_edge(switches[1], nics[3])
    graph.add_edge(switches[0], ssd)
    return graph


def _build_hgx(spec: MachineSpec) -> nx.Graph:
    """Shared builder for the 8-GPU HGX baseboards (A100 and H100).

    Two sockets, four PCIe switches (two per socket), two GPUs per
    switch, a NIC per GPU for the rail-optimized fabric, and an
    NVLink/NVSwitch full mesh across all eight SXM sockets.
    """
    graph = nx.Graph()
    board = _add(graph, Component(ComponentKind.SYSTEM_BOARD, 0,
                                  "HGX baseboard"))
    cpus = [
        _add(graph, Component(ComponentKind.CPU, i, spec.cpu_model))
        for i in range(spec.cpus_per_node)
    ]
    memories = [
        _add(graph, Component(ComponentKind.MEMORY, i, f"{spec.memory_gb}GB"))
        for i in range(spec.cpus_per_node)
    ]
    switches = [
        _add(graph, Component(ComponentKind.PCIE_SWITCH, i, "PCIe switch"))
        for i in range(4)
    ]
    gpus = [
        _add(graph, Component(ComponentKind.GPU, i, spec.gpu_model))
        for i in range(spec.gpus_per_node)
    ]
    nics = [
        _add(graph, Component(ComponentKind.NIC, i, spec.interconnect))
        for i in range(spec.gpus_per_node)
    ]
    ssd = _add(graph, Component(ComponentKind.SSD, 0, spec.ssd))

    for cpu, memory in zip(cpus, memories):
        graph.add_edge(board, cpu)
        graph.add_edge(cpu, memory)
    graph.add_edge(cpus[0], cpus[1])  # socket interconnect
    # Two PCIe switches per socket; two GPUs and two NICs per switch.
    for index, switch in enumerate(switches):
        graph.add_edge(cpus[index // 2], switch)
        graph.add_edge(switch, gpus[2 * index])
        graph.add_edge(switch, gpus[2 * index + 1])
        graph.add_edge(switch, nics[2 * index])
        graph.add_edge(switch, nics[2 * index + 1])
    # NVSwitch-backed NVLink full mesh among the eight SXM GPUs.
    for i in range(spec.gpus_per_node):
        for j in range(i + 1, spec.gpus_per_node):
            graph.add_edge(gpus[i], gpus[j], link="nvlink")
    graph.add_edge(switches[0], ssd)
    return graph


_BUILDERS = {
    "tsubame2": _build_tsubame2,
    "tsubame3": _build_tsubame3,
    "a100": _build_hgx,
    "h100": _build_hgx,
}


@lru_cache(maxsize=None)
def build_node_topology(machine: str) -> NodeTopology:
    """Build the Figure 1 node topology for ``machine``.

    Cached: the networkx graph build is by far the most expensive of
    the per-replication constructor lookups, and the returned topology
    is treated as read-only everywhere (callers must not mutate
    ``.graph``; the ``bus_mates`` table is derived from it).

    Raises:
        MachineError: If the machine is unknown.
    """
    spec = get_machine(machine)
    builder = _BUILDERS.get(machine)
    if builder is None:
        raise MachineError(f"no topology builder for machine {machine!r}")
    return NodeTopology(machine=machine, graph=builder(spec))
