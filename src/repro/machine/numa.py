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

import numpy as np

from .topology import NUMATopology

#: Itanium/Linux default page size on the Altix: 16 KB.
PAGE_SIZE = 16 * 1024


class PlacementError(Exception):
    """Raised for invalid region or touch operations."""


class MemoryRegion:
    """A named allocation with per-page NUMA ownership.

    Pages start *unplaced*; the first touch pins each to a node.  ``owner``
    is a read-only view: placement changes go through
    :meth:`PageTable.touch`, :meth:`PageTable.charge_rows` and
    :meth:`PageTable.reset_region`, which is what lets the region cache
    the local-page count and latency sum of each ``(node, page range)``
    that was charged until an owner changes.
    """

    __slots__ = ("name", "size_bytes", "n_pages", "owner", "_owner",
                 "_unplaced", "_costs")

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

    def node_histogram(self, n_nodes: int) -> np.ndarray:
        """Pages owned per node (unplaced pages excluded)."""
        return np.bincount(self._owner[self._owner >= 0], minlength=n_nodes)[:n_nodes]

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

    # -- touching and accounting ---------------------------------------------
    def touch(
        self, name: str, node: int, *, start_byte: int = 0, length: int | None = None
    ) -> int:
        """First-touch a byte range from ``node`` (``length`` None: to the
        region's end); returns pages newly placed.

        Already-placed pages keep their owner (that is the policy's point).
        """
        [region], first, last = self.ranges(
            (name,), np.zeros(1, np.int64), np.array([start_byte], float),
            np.array([np.nan if length is None else length]), np.array([node]))
        return self._first_touch(region, int(first[0]), int(last[0]), node)

    def _first_touch(self, region: MemoryRegion, first: int, last: int,
                     node: int) -> int:
        placed = region._place(first, last, node) if last >= first else 0
        if placed:
            self._placement_changed(region)
        return placed

    def ranges(self, names, codes, starts, lengths, nodes=None, accesses=None):
        """The regions and first and last pages of row ranges given as
        columns: row ``i`` spans ``lengths[i]`` bytes (NaN: to the end) from
        ``starts[i]`` of region ``names[codes[i]]`` (code -1: no range).

        The first bad row raises :class:`PlacementError`: an unknown region,
        a range outside its region, negative ``accesses``, accesses to an
        empty range (it has no pages to spread them over), or a node out of
        range.
        """
        known = [self._regions.get(name) for name in names]
        sizes = np.array([-1.0 if r is None else r.size_bytes for r in known]
                         + [0.0])[codes]  # code -1 reads the trailing 0
        lengths = np.where(np.isnan(lengths), sizes - starts, lengths)
        bad = (sizes < 0) | (starts < 0) | (lengths < 0) | (starts + lengths > sizes)
        if accesses is not None:
            bad |= (accesses < 0) | ((lengths == 0) & (accesses > 0))
        if nodes is not None:
            bad |= (nodes < 0) | (nodes >= self.topology.n_nodes)
        bad &= codes >= 0
        if bad.any():
            i = int(bad.argmax())
            name, start, length = names[codes[i]], int(starts[i]), int(lengths[i])
            size = self.region(name).size_bytes  # refuses an unknown name
            if start < 0 or length < 0 or start + length > size:
                raise PlacementError(f"touch range [{start}, {start + length}) "
                                     f"outside region {name!r} of {size} bytes")
            if accesses is not None and accesses[i] < 0:
                raise PlacementError("accesses must be non-negative")
            if accesses is not None and accesses[i] > 0 and length == 0:
                raise PlacementError(f"region {name!r}: accesses to an empty range")
            raise PlacementError(f"node {nodes[i]} out of range")
        first = starts.astype(np.int64) // PAGE_SIZE
        stops = (starts + lengths).astype(np.int64)
        # an empty range's last page comes before its first
        return known, first, np.where(lengths > 0, (stops - 1) // PAGE_SIZE, first - 1)

    def charge_rows(self, names, codes, starts, lengths, nodes, accesses):
        """Charge ``accesses[i]`` memory transactions from ``nodes[i]`` to
        row ``i``'s range (columns as in :meth:`ranges`); returns the local,
        remote and latency-cycle columns (0 for rows without a range).

        Accesses are spread uniformly over a range's pages.  Unplaced pages
        are first-touch placed on the row's node, row by row in order
        (reading uninitialized memory still allocates it), so each row's
        range is placed for good before any later row touches it.
        """
        regions, first, last = self.ranges(names, codes, starts, lengths,
                                           nodes, accesses)
        if any(r is not None and r._unplaced for r in regions):
            for i in np.flatnonzero(codes >= 0).tolist():
                self._first_touch(regions[codes[i]], int(first[i]), int(last[i]),
                                  int(nodes[i]))
        charged = np.flatnonzero((codes >= 0) & (accesses > 0))
        costs = np.array([
            self._range_cost(regions[c], node, a, b) for c, node, a, b in zip(
                codes[charged].tolist(), nodes[charged].tolist(),
                first[charged].tolist(), last[charged].tolist())
        ], float).reshape(-1, 3).T
        local, remote, latency = np.zeros((3, len(codes)))
        per_page = accesses[charged] / costs[0]
        local[charged] = per_page * costs[1]
        # clamp the subtraction residue: fully-local batches must report
        # exactly zero remote accesses (rules compare against zero)
        remote[charged] = np.maximum(accesses[charged] - local[charged], 0.0)
        latency[charged] = per_page * costs[2]
        return local, remote, latency

    def _range_cost(self, region: MemoryRegion, node: int, first: int,
                    last: int) -> tuple[int, float, float]:
        """Pages, local pages and latency sum of pages ``first..last`` seen
        from ``node`` (kept by the region until its placement changes)."""
        key = (node, first, last)
        cost = region._costs.get(key)
        if cost is None:
            owners = region._owner[first : last + 1]
            topo = self.topology
            hops = np.where(owners == node, 0, topo.hop_matrix[node][owners])
            latencies = (
                topo.latency.local_cycles + topo.latency.per_hop_cycles * hops
            )
            cost = region._costs[key] = (
                len(owners),
                float(np.count_nonzero(owners == node)),
                float(latencies.sum()),
            )
        return cost

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

