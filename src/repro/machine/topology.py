"""ccNUMA interconnect topology (SGI Altix NUMAlink fabric).

The paper's machines are SGI Altix systems: each *node* holds two Itanium 2
processors and local memory; two nodes share a memory hub forming a
*C-brick*; C-bricks hang off NUMAlink routers arranged hierarchically.  A
single address space spans the machine, and the cost of a memory access
depends on the hop count between the accessing CPU's node and the node
owning the page.

We build the fabric as a :mod:`networkx` graph — node vertices, hub
vertices, and a balanced tree of router vertices — and derive a dense
node→node hop-count matrix from shortest paths.  Latency is
``local + per_hop × hops`` in cycles; the maximum entry is the paper's
"worst-case scenario for a pair of nodes with the maximum number of hops".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import networkx as nx
import numpy as np


@dataclass(frozen=True)
class LatencyModel:
    """Memory latency parameters in CPU cycles.

    Defaults approximate a 1.5 GHz Madison on NUMAlink 4: ~140 ns local
    (≈ 210 cycles), each fabric hop adding ~45 ns (≈ 70 cycles).
    """

    local_cycles: float = 210.0
    per_hop_cycles: float = 70.0
    tlb_miss_penalty_cycles: float = 25.0

    def memory_latency(self, hops: int) -> float:
        """Latency of a memory access across ``hops`` fabric hops."""
        if hops < 0:
            raise ValueError("hop count must be non-negative")
        return self.local_cycles + self.per_hop_cycles * hops


class NUMATopology:
    """Hop-count geometry of an Altix-style machine.

    Parameters
    ----------
    n_nodes:
        Number of NUMA nodes (each with ``cpus_per_node`` processors).
    cpus_per_node:
        2 on the Altix systems in the paper.
    """

    #: Fan-out of the NUMAlink router tree above the C-bricks.
    ROUTER_RADIX = 4

    def __init__(
        self,
        n_nodes: int,
        *,
        cpus_per_node: int = 2,
        latency: LatencyModel | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if cpus_per_node < 1:
            raise ValueError("need at least one cpu per node")
        self.n_nodes = n_nodes
        self.cpus_per_node = cpus_per_node
        self.latency = latency or LatencyModel()
        self.graph = self._build_graph()

    @property
    def n_cpus(self) -> int:
        return self.n_nodes * self.cpus_per_node

    def node_of_cpu(self, cpu: int) -> int:
        """The NUMA node a flat CPU index lives on."""
        if not 0 <= cpu < self.n_cpus:
            raise ValueError(f"cpu {cpu} out of range (machine has {self.n_cpus})")
        return cpu // self.cpus_per_node

    def _build_graph(self) -> nx.Graph:
        g = nx.Graph()
        for n in range(self.n_nodes):
            g.add_node(("node", n))
        # Pair nodes into C-bricks via a memory hub.
        n_bricks = math.ceil(self.n_nodes / 2)
        for b in range(n_bricks):
            hub = ("hub", b)
            g.add_node(hub)
            for n in (2 * b, 2 * b + 1):
                if n < self.n_nodes:
                    g.add_edge(("node", n), hub)
        # Router tree above the bricks.
        level_members = [("hub", b) for b in range(n_bricks)]
        level = 0
        while len(level_members) > 1:
            parents = []
            for i in range(0, len(level_members), self.ROUTER_RADIX):
                router = ("router", level, i // self.ROUTER_RADIX)
                g.add_node(router)
                for child in level_members[i : i + self.ROUTER_RADIX]:
                    g.add_edge(child, router)
                parents.append(router)
            level_members = parents
            level += 1
        return g

    @cached_property
    def hop_matrix(self) -> np.ndarray:
        """(n_nodes, n_nodes) fabric hop counts.

        A hop is an edge traversal beyond the node's own hub: same node = 0,
        brick partner = 1, anything farther counts the router edges.
        """
        hops = np.zeros((self.n_nodes, self.n_nodes), dtype=int)
        lengths = dict(
            nx.all_pairs_shortest_path_length(self.graph)
        )
        for a in range(self.n_nodes):
            row = lengths[("node", a)]
            for b in range(self.n_nodes):
                if a == b:
                    continue
                # path length counts node→hub edges on both ends; one edge
                # (into the local hub) is "free" in hardware terms.
                hops[a, b] = max(row[("node", b)] - 1, 1)
        return hops

    def hops(self, node_a: int, node_b: int) -> int:
        return int(self.hop_matrix[node_a, node_b])

    @cached_property
    def max_hops(self) -> int:
        return int(self.hop_matrix.max())

    def worst_case_remote_latency(self) -> float:
        """The paper's system-dependent worst-case remote access latency."""
        return self.latency.memory_latency(self.max_hops)

