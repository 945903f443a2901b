"""Tests for the analytical cache model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (
    CacheHierarchy,
    CacheLevel,
    WorkSignature,
    itanium2_hierarchy,
)

KB = 1024
MB = 1024 * KB


class TestConstruction:
    def test_itanium2_geometry(self):
        h = itanium2_hierarchy()
        names = [l.name for l in h.levels]
        assert names == ["L1D", "L2", "L3"]
        assert h.levels[0].capacity_bytes == 16 * KB
        assert h.levels[1].capacity_bytes == 256 * KB
        assert h.levels[2].capacity_bytes == 6 * MB

    def test_levels_must_grow(self):
        with pytest.raises(ValueError, match="must grow"):
            CacheHierarchy(
                [
                    CacheLevel("big", 1 * MB, 64, 1),
                    CacheLevel("small", 16 * KB, 64, 5),
                ]
            )

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])

    def test_bad_level_geometry(self):
        with pytest.raises(ValueError):
            CacheLevel("x", 0, 64, 1)
        with pytest.raises(ValueError):
            CacheLevel("x", 32, 64, 1)


def access(hierarchy, accesses, footprint, reuse=0.9):
    """One region execution through ``access_rows``: per-level
    (references, misses), memory accesses and stall cycles."""
    rows = hierarchy.access_rows(
        np.array([accesses], float), np.array([footprint], float),
        np.array([reuse], float))
    levels = [(float(r[0]), float(m[0]))
              for r, m in zip(rows.references, rows.misses)]
    return levels, float(rows.memory_accesses[0]), float(rows.stall_cycles[0])


def miss_ratio(level):
    references, misses = level
    return misses / references if references else 0.0


class TestAccessSummary:
    def test_validation(self):
        """The work signature that carries a region's access summary
        (accesses, footprint, reuse) rejects out-of-range values."""
        with pytest.raises(ValueError):
            WorkSignature(loads=-1, footprint_bytes=100)
        with pytest.raises(ValueError):
            WorkSignature(loads=1, footprint_bytes=100, reuse=1.5)


class TestModelBehaviour:
    def test_zero_accesses(self):
        _, memory, stalls = access(itanium2_hierarchy(), 0, 0)
        assert memory == 0 and stalls == 0

    def test_small_hot_set_stays_in_l1(self):
        """A 4KB working set with high reuse barely misses L1."""
        h = itanium2_hierarchy()
        levels, memory, _ = access(h, 1e6, 4 * KB, reuse=1.0)
        assert miss_ratio(levels[0]) < 0.001
        assert memory < levels[0][0] * 0.001

    def test_streaming_defeats_all_levels(self):
        """reuse=0 makes every access effectively cold."""
        h = itanium2_hierarchy()
        levels, memory, _ = access(h, 1e6, 64 * MB, reuse=0.0)
        assert miss_ratio(levels[0]) > 0.99
        assert memory > 0.99e6

    def test_l3_captures_medium_working_set(self):
        """A 1MB set misses L1/L2 heavily but hits in 6MB L3."""
        h = itanium2_hierarchy()
        (_, l2, l3), memory, _ = access(h, 1e6, 1 * MB, reuse=0.95)
        assert miss_ratio(l2) > 0.5
        assert miss_ratio(l3) < 0.2
        assert memory < 0.2e6

    def test_misses_monotone_in_footprint(self):
        """Bigger working sets never miss less (same access count)."""
        h = itanium2_hierarchy()
        prev = -1.0
        for fp in [8 * KB, 64 * KB, 512 * KB, 4 * MB, 32 * MB]:
            _, memory, _ = access(h, 1e6, fp, reuse=0.9)
            assert memory >= prev
            prev = memory

    def test_misses_decrease_with_reuse(self):
        h = itanium2_hierarchy()
        _, low, _ = access(h, 1e6, 512 * KB, reuse=0.1)
        _, high, _ = access(h, 1e6, 512 * KB, reuse=0.99)
        assert high < low


@settings(max_examples=60, deadline=None)
@given(
    accesses=st.floats(min_value=1, max_value=1e9),
    footprint=st.floats(min_value=1, max_value=1e9),
    reuse=st.floats(min_value=0, max_value=1),
)
def test_conservation_properties(accesses, footprint, reuse):
    """Invariants: 0 <= misses <= references at every level; references
    cascade (level i+1 refs == level i misses); memory <= total accesses."""
    levels, memory, stalls = access(itanium2_hierarchy(), accesses,
                                    footprint, reuse)
    assert levels[0][0] == pytest.approx(accesses)
    for (up_refs, up_misses), (low_refs, _) in zip(levels, levels[1:]):
        assert 0 <= up_misses <= up_refs + 1e-9
        assert low_refs == pytest.approx(up_misses)
    assert 0 <= memory <= accesses + 1e-9
    assert stalls >= 0
