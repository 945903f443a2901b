"""Tests for the NUMA topology and first-touch page placement."""

from typing import NamedTuple

import numpy as np
import pytest

from repro.machine import (
    PAGE_SIZE,
    LatencyModel,
    NUMATopology,
    PageTable,
    PlacementError,
)


class Cost(NamedTuple):
    """One range's charge: local and remote accesses, latency cycles."""

    local_accesses: float
    remote_accesses: float
    latency_cycles: float

    @property
    def total_accesses(self) -> float:
        return self.local_accesses + self.remote_accesses

    @property
    def remote_ratio(self) -> float:
        total = self.total_accesses
        return self.remote_accesses / total if total else 0.0


def charge(pt, name, node, accesses, *, start_byte=0, length=None):
    """Charge ``accesses`` from ``node`` to one range: a one-row batch of
    ``PageTable.charge_rows``."""
    return Cost(*(float(column[0]) for column in pt.charge_rows(
        (name,), np.zeros(1, np.int64), np.array([start_byte], float),
        np.array([np.nan if length is None else length]), np.array([node]),
        np.array([accesses], float))))


class TestTopology:
    def test_single_node(self):
        t = NUMATopology(1, cpus_per_node=4)
        assert t.n_cpus == 4
        assert t.max_hops == 0
        assert t.latency.memory_latency(0) == t.latency.local_cycles

    def test_altix300_shape(self):
        t = NUMATopology(8, cpus_per_node=2)
        assert t.n_cpus == 16
        assert t.node_of_cpu(0) == 0 and t.node_of_cpu(15) == 7

    def test_cpu_out_of_range(self):
        t = NUMATopology(2)
        with pytest.raises(ValueError):
            t.node_of_cpu(99)

    def test_hop_matrix_properties(self):
        t = NUMATopology(8)
        h = t.hop_matrix
        assert (np.diag(h) == 0).all()
        assert (h == h.T).all()
        assert (h[~np.eye(8, dtype=bool)] >= 1).all()

    def test_brick_partner_closer_than_cross_brick(self):
        t = NUMATopology(8)
        assert t.hops(0, 1) < t.hops(0, 2)

    def test_hierarchy_grows_with_machine(self):
        small = NUMATopology(8)
        large = NUMATopology(256)
        assert large.max_hops > small.max_hops

    def test_worst_case_latency(self):
        t = NUMATopology(8, latency=LatencyModel(local_cycles=200, per_hop_cycles=50))
        assert t.worst_case_remote_latency() == 200 + 50 * t.max_hops
        assert t.latency.memory_latency(0) == 200

    def test_mean_remote_latency(self):
        """Every other node is farther than local memory; a one-node
        machine has only local memory."""
        t = NUMATopology(4)
        local = t.latency.memory_latency(0)
        remote = [t.latency.memory_latency(t.hops(0, b)) for b in range(1, 4)]
        assert np.mean(remote) > local
        assert NUMATopology(1).worst_case_remote_latency() == local

    def test_latency_model_validation(self):
        with pytest.raises(ValueError):
            LatencyModel().memory_latency(-1)


class TestPageTable:
    def _pt(self, nodes=4):
        return PageTable(NUMATopology(nodes))

    def test_allocate_and_page_count(self):
        pt = self._pt()
        r = pt.allocate("u", 3 * PAGE_SIZE + 1)
        assert r.n_pages == 4
        assert pt.regions() == ["u"]

    def test_duplicate_allocation_rejected(self):
        pt = self._pt()
        pt.allocate("u", PAGE_SIZE)
        with pytest.raises(PlacementError, match="already"):
            pt.allocate("u", PAGE_SIZE)

    def test_first_touch_pins_owner(self):
        pt = self._pt()
        pt.allocate("u", 4 * PAGE_SIZE)
        assert pt.touch("u", 1) == 4  # all pages placed on node 1
        assert pt.touch("u", 2) == 0  # second touch changes nothing
        assert (pt.region("u").owner == 1).all()

    def test_partitioned_touch_distributes(self):
        pt = self._pt(4)
        pt.allocate("u", 8 * PAGE_SIZE)
        for node in range(4):
            pt.touch("u", node, start_byte=2 * node * PAGE_SIZE,
                     length=2 * PAGE_SIZE)
        hist = pt.region("u").node_histogram(4)
        assert (hist == 2).all()

    def test_serial_init_vs_parallel_init_access_cost(self):
        """The GenIDLEST root cause: serial init concentrates pages on node
        0, so threads on other nodes see mostly-remote accesses; parallel
        init gives each node a local partition."""
        topo = NUMATopology(4)
        serial = PageTable(topo)
        serial.allocate("u", 16 * PAGE_SIZE)
        serial.touch("u", 0)  # master-thread initialization

        parallel = PageTable(topo)
        parallel.allocate("u", 16 * PAGE_SIZE)
        quarter = 4 * PAGE_SIZE
        for node in range(4):  # each thread initializes its own quarter
            parallel.touch("u", node, start_byte=node * quarter, length=quarter)

        # node 3 works on the last quarter of the array
        cost_serial = charge(serial, "u", 3, 1e6, start_byte=3 * quarter,
                             length=quarter)
        cost_parallel = charge(parallel, "u", 3, 1e6, start_byte=3 * quarter,
                               length=quarter)
        assert cost_serial.remote_ratio == pytest.approx(1.0)
        assert cost_parallel.remote_ratio == pytest.approx(0.0)
        assert cost_serial.latency_cycles > cost_parallel.latency_cycles

    def test_charge_places_untouched_pages(self):
        pt = self._pt()
        pt.allocate("u", 2 * PAGE_SIZE)
        cost = charge(pt, "u", 2, 100)
        assert cost.remote_ratio == 0.0
        assert (pt.region("u").owner == 2).all()

    def test_zero_accesses(self):
        pt = self._pt()
        pt.allocate("u", PAGE_SIZE)
        cost = charge(pt, "u", 0, 0)
        assert cost.total_accesses == 0 and cost.latency_cycles == 0

    def test_accesses_to_empty_range_rejected(self):
        """An empty range places no page; charging it must not read an
        unplaced page's owner (-1) as the last node's hop count."""
        pt = PageTable(NUMATopology(8, cpus_per_node=2))
        pt.allocate("u", 4 * PAGE_SIZE)
        with pytest.raises(PlacementError, match="empty range"):
            charge(pt, "u", 0, 1000.0, length=0)
        with pytest.raises(PlacementError, match="empty range"):
            charge(pt, "u", 0, 1.0, start_byte=4 * PAGE_SIZE)
        assert (pt.region("u").owner == -1).all()
        assert charge(pt, "u", 0, 0.0, length=0).total_accesses == 0

    def test_latency_includes_local_component(self):
        pt = self._pt(1)
        pt.allocate("u", PAGE_SIZE)
        cost = charge(pt, "u", 0, 1000)
        assert cost.latency_cycles == pytest.approx(
            1000 * pt.topology.latency.local_cycles
        )

    def test_out_of_range_touch(self):
        pt = self._pt()
        pt.allocate("u", PAGE_SIZE)
        with pytest.raises(PlacementError, match="outside"):
            pt.touch("u", 0, start_byte=0, length=2 * PAGE_SIZE)
        with pytest.raises(PlacementError):
            pt.touch("u", 99)

    def test_unknown_region(self):
        pt = self._pt()
        with pytest.raises(PlacementError, match="no region"):
            pt.region("ghost")

    def test_free_and_reset(self):
        pt = self._pt()
        pt.allocate("u", PAGE_SIZE)
        pt.touch("u", 1)
        pt.reset_region("u")
        assert (pt.region("u").owner == -1).all()
        pt.free("u")
        assert pt.regions() == []
        with pytest.raises(PlacementError):
            pt.free("u")

    def test_remote_ratio_mixed_ownership(self):
        pt = self._pt(2)
        pt.allocate("u", 4 * PAGE_SIZE)
        pt.touch("u", 0, start_byte=0, length=2 * PAGE_SIZE)
        pt.touch("u", 1, start_byte=2 * PAGE_SIZE, length=2 * PAGE_SIZE)
        cost = charge(pt, "u", 0, 1000)
        assert cost.remote_ratio == pytest.approx(0.5)
        assert cost.local_accesses == pytest.approx(500)

    def test_charge_cost_follows_reset_and_retouch(self):
        """The placement-derived cost cache must not outlive a placement
        change: after reset + re-touch from another node, charges equal
        those of a fresh table placed the same way."""
        args = dict(start_byte=PAGE_SIZE, length=2 * PAGE_SIZE)
        pt = self._pt(4)
        pt.allocate("u", 4 * PAGE_SIZE)
        pt.touch("u", 0)
        before = charge(pt, "u", 1, 1e4, **args)
        pt.reset_region("u")
        pt.touch("u", 3)
        fresh = self._pt(4)
        fresh.allocate("u", 4 * PAGE_SIZE)
        fresh.touch("u", 3)
        for node in (1, 3):
            assert charge(pt, "u", node, 1e4, **args) == \
                charge(fresh, "u", node, 1e4, **args)
        assert charge(pt, "u", 1, 1e4, **args) != before

    def test_charge_cost_follows_partial_placement(self):
        pt = self._pt(2)
        pt.allocate("u", 4 * PAGE_SIZE)
        pt.touch("u", 1, start_byte=0, length=PAGE_SIZE)
        # charging from node 0 first-touches the other three pages locally
        assert charge(pt, "u", 0, 400).local_accesses == 300
        pt.reset_region("u")
        assert charge(pt, "u", 0, 400).local_accesses == 400

    def test_node_histogram_follows_touch(self):
        pt = self._pt(4)
        pt.allocate("u", 4 * PAGE_SIZE)
        region = pt.region("u")
        assert region.node_histogram(4).tolist() == [0, 0, 0, 0]
        pt.touch("u", 2, start_byte=0, length=PAGE_SIZE)
        assert region.node_histogram(4).tolist() == [0, 0, 1, 0]
        pt.touch("u", 1)
        assert region.node_histogram(4).tolist() == [0, 3, 1, 0]
        pt.reset_region("u")
        assert region.node_histogram(4).tolist() == [0, 0, 0, 0]
        assert (region.owner == -1).all()

    def test_owner_is_read_only(self):
        pt = self._pt()
        pt.allocate("u", PAGE_SIZE)
        with pytest.raises(ValueError):
            pt.region("u").owner[0] = 1
