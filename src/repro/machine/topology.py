"""ccNUMA interconnect topology (SGI Altix NUMAlink fabric).

The paper's machines are SGI Altix systems: each *node* holds two Itanium 2
processors and local memory; two nodes share a memory hub forming a
*C-brick*; C-bricks hang off NUMAlink routers arranged hierarchically.  A
single address space spans the machine, and the cost of a memory access
depends on the hop count between the accessing CPU's node and the node
owning the page.

The fabric is a tree: nodes ``2b`` and ``2b + 1`` share hub ``b``, and
the hubs sit under a balanced radix-4 tree of routers.  A path in a tree
is unique, so the dense node→node hop-count matrix has a closed form in
the node indices (:attr:`NUMATopology.hop_matrix`).  Latency is
``local + per_hop × hops`` in cycles; the maximum entry is the paper's
"worst-case scenario for a pair of nodes with the maximum number of hops".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @property
    def n_cpus(self) -> int:
        return self.n_nodes * self.cpus_per_node

    def node_of_cpu(self, cpu: int) -> int:
        """The NUMA node a flat CPU index lives on."""
        if not 0 <= cpu < self.n_cpus:
            raise ValueError(f"cpu {cpu} out of range (machine has {self.n_cpus})")
        return cpu // self.cpus_per_node

    @cached_property
    def hop_matrix(self) -> np.ndarray:
        """(n_nodes, n_nodes) fabric hop counts.

        Same node = 0 and brick partner = 1.  Any other pair climbs ``k``
        router levels to the lowest router both hubs share (the smallest
        ``k`` with equal ``hub // ROUTER_RADIX**k``) and back down: the
        node→hub edge at the far end plus ``2k`` router edges, the edge
        into the local hub being free in hardware terms.
        """
        nodes = np.arange(self.n_nodes)
        hops = (nodes[:, None] != nodes).astype(int)
        hub = nodes // 2
        while hub.max() > 0:
            hops += 2 * (hub[:, None] != hub)
            hub //= self.ROUTER_RADIX
        return hops

    def hops(self, node_a: int, node_b: int) -> int:
        return int(self.hop_matrix[node_a, node_b])

    @cached_property
    def max_hops(self) -> int:
        return int(self.hop_matrix.max())

    def worst_case_remote_latency(self) -> float:
        """The paper's system-dependent worst-case remote access latency."""
        return self.latency.memory_latency(self.max_hops)

