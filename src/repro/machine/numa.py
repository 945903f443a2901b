"""Page placement and local/remote access accounting.

SGI's Linux places memory by the *first-touch* policy: a page is allocated
on the NUMA node of the first CPU that touches it.  The paper's GenIDLEST
case study hinges on exactly this: the unoptimized OpenMP code initializes
its arrays on the master thread, so every page lands on node 0 and all other
threads pay remote latency forever after.  The fix — parallelizing the
initialization loops — distributes pages so each thread's partition is
local.

:class:`PageTable` tracks page→node ownership for named memory regions and
answers the accounting question the memory-stall formula needs: *of the
memory accesses a CPU on node X makes to region R's pages, what fraction is
local, and what is the average latency of the remote ones?*
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import NUMATopology

#: Itanium/Linux default page size on the Altix: 16 KB.
PAGE_SIZE = 16 * 1024


class PlacementError(Exception):
    """Raised for invalid region or touch operations."""


@dataclass(frozen=True)
class AccessCost:
    """Result of charging a batch of memory accesses against placement."""

    local_accesses: float
    remote_accesses: float
    #: Total fabric latency cycles for the whole batch (local + remote).
    latency_cycles: float

    @property
    def total_accesses(self) -> float:
        return self.local_accesses + self.remote_accesses

    @property
    def remote_ratio(self) -> float:
        """Fraction of accesses that were remote."""
        total = self.total_accesses
        return self.remote_accesses / total if total else 0.0


class MemoryRegion:
    """A named allocation with per-page NUMA ownership.

    Pages start *unplaced*; the first touch pins each to a node.  ``owner``
    is a read-only view: placement changes go through
    :meth:`PageTable.touch` and :meth:`PageTable.reset_region`, which is
    what lets the region cache what it derives from the placement (the
    per-node histogram, and the local-page count and latency sum of each
    ``(node, page range)`` that was charged) until an owner changes.
    """

    __slots__ = ("name", "size_bytes", "n_pages", "owner", "_owner",
                 "_unplaced", "_costs", "_histogram")

    def __init__(self, name: str, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise PlacementError(f"region {name!r}: size must be positive")
        self.name = name
        self.size_bytes = int(size_bytes)
        self.n_pages = max(1, -(-self.size_bytes // PAGE_SIZE))  # ceil div
        #: page → owning node; -1 = not yet touched.
        self._owner = np.full(self.n_pages, -1, dtype=np.int32)
        self.owner = self._owner.view()
        self.owner.flags.writeable = False
        self._unplaced = self.n_pages
        #: (node, first page, last page) → (pages, local pages, latency sum)
        self._costs: dict[tuple[int, int, int], tuple[int, float, float]] = {}
        self._histogram: np.ndarray | None = None

    def node_histogram(self, n_nodes: int) -> np.ndarray:
        """Pages owned per node (unplaced pages excluded; read-only)."""
        hist = self._histogram
        if hist is None or len(hist) != n_nodes:
            placed = self._owner[self._owner >= 0]
            hist = np.bincount(placed, minlength=n_nodes)[:n_nodes]
            hist.flags.writeable = False
            self._histogram = hist
        return hist

    def _place(self, first: int, last: int, node: int) -> int:
        """First-touch pages ``first..last`` on ``node``; returns how many
        were newly placed."""
        if not self._unplaced:
            return 0
        window = self._owner[first : last + 1]
        unplaced = window < 0
        placed = int(np.count_nonzero(unplaced))
        if placed:
            window[unplaced] = node
            self._unplaced -= placed
        return placed

    def _reset(self) -> None:
        self._owner[:] = -1
        self._unplaced = self.n_pages


class PageTable:
    """First-touch page placement over a :class:`NUMATopology`."""

    def __init__(self, topology: NUMATopology) -> None:
        self.topology = topology
        self._regions: dict[str, MemoryRegion] = {}
        #: Bumped by :meth:`_placement_changed`: what is derived from the
        #: placement holds while it stays put.
        self.generation = 0

    def allocate(self, name: str, size_bytes: int) -> MemoryRegion:
        if name in self._regions:
            raise PlacementError(f"region {name!r} already allocated")
        region = MemoryRegion(name, size_bytes)
        self._regions[name] = region
        return region

    def free(self, name: str) -> None:
        if name not in self._regions:
            raise PlacementError(f"no region {name!r}")
        self._placement_changed(self._regions.pop(name))

    def region(self, name: str) -> MemoryRegion:
        if name not in self._regions:
            raise PlacementError(
                f"no region {name!r}; allocated: {sorted(self._regions)}"
            )
        return self._regions[name]

    def regions(self) -> list[str]:
        return sorted(self._regions)

    def span(self, name: str, start_byte: int = 0,
             length: int | None = None) -> tuple[MemoryRegion, int]:
        """The region and byte length of a range inside it (``None``: to
        the end), else :class:`PlacementError`."""
        region = self.region(name)
        if length is None:
            length = region.size_bytes - start_byte
        if start_byte < 0 or length < 0 or start_byte + length > region.size_bytes:
            raise PlacementError(
                f"touch range [{start_byte}, {start_byte + length}) outside "
                f"region {name!r} of {region.size_bytes} bytes"
            )
        return region, length

    # -- touching -------------------------------------------------------------
    def touch(
        self, name: str, node: int, *, start_byte: int = 0, length: int | None = None
    ) -> int:
        """First-touch a byte range from ``node``; returns pages newly placed.

        Already-placed pages keep their owner (that is the policy's point).
        """
        region, length = self.span(name, start_byte, length)
        if not 0 <= node < self.topology.n_nodes:
            raise PlacementError(f"node {node} out of range")
        if length == 0:
            return 0
        first = start_byte // PAGE_SIZE
        last = (start_byte + length - 1) // PAGE_SIZE
        placed = region._place(first, last, node)
        if placed:
            self._placement_changed(region)
        return placed

    # -- accounting -----------------------------------------------------------
    def charge_accesses(
        self,
        name: str,
        node: int,
        accesses: float,
        *,
        start_byte: int = 0,
        length: int | None = None,
    ) -> AccessCost:
        """Charge ``accesses`` memory transactions from ``node`` to a range.

        Accesses are spread uniformly over the range's pages.  Unplaced
        pages are first-touch placed on ``node`` as a side effect (reading
        uninitialized memory still allocates it).  An empty range has no
        pages to spread accesses over, so charging any to it is an error.
        """
        region, length = self.span(name, start_byte, length)
        if accesses < 0:
            raise PlacementError("accesses must be non-negative")
        if length == 0 and accesses > 0:
            raise PlacementError(f"region {name!r}: accesses to an empty range")
        self.touch(name, node, start_byte=start_byte, length=length)
        if accesses == 0:
            return AccessCost(0.0, 0.0, 0.0)
        first = start_byte // PAGE_SIZE
        last = (start_byte + length - 1) // PAGE_SIZE
        key = (node, first, last)
        cost = region._costs.get(key)
        if cost is None:
            owners = region._owner[first : last + 1]
            topo = self.topology
            hop_row = topo.hop_matrix[node]
            hops = np.where(owners == node, 0, hop_row[owners])
            latencies = (
                topo.latency.local_cycles + topo.latency.per_hop_cycles * hops
            )
            cost = region._costs[key] = (
                len(owners),
                float(np.count_nonzero(owners == node)),
                float(latencies.sum()),
            )
        pages, local_pages, latency_sum = cost
        per_page = accesses / pages
        local = per_page * local_pages
        # clamp the subtraction residue: fully-local batches must report
        # exactly zero remote accesses (rules compare against zero)
        remote = max(accesses - local, 0.0)
        total_latency = per_page * latency_sum
        return AccessCost(local, remote, total_latency)

    def reset_region(self, name: str) -> None:
        """Unplace every page (models a fresh allocation of the same name)."""
        region = self.region(name)
        region._reset()
        self._placement_changed(region)

    def _placement_changed(self, region: MemoryRegion) -> None:
        """The one signal that ``region`` placed, unplaced or freed pages:
        moves :attr:`generation` and drops the region's derived caches."""
        self.generation += 1
        region._costs.clear()
        region._histogram = None
