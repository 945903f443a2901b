"""Analytical cache-hierarchy model (Itanium 2 Madison geometry).

Trace-driven simulation of billions of accesses is infeasible at the scales
the paper's experiments run, so the hierarchy is modeled analytically, per
*region execution*: given an access stream summary — bytes touched (working
set), total loads+stores, and a temporal reuse factor — each level's misses
follow a capacity model:

* compulsory misses: one per distinct line (``footprint / line_size``),
* capacity misses: when the working set exceeds a level's capacity, the
  fraction of reuses that miss grows smoothly from 0 toward 1; we use the
  classic ``1 - capacity/ws`` hyperbolic form, which matches the qualitative
  miss curves used by OpenUH's static cache model (Wolf/Maydan/Chen) without
  pretending to per-address accuracy.

Misses at level *i* become references at level *i+1*; the bottom level's
misses go to memory (and are split local/remote by the NUMA layer).  The
model is deterministic — same signature, same misses — which keeps profiles
and the figures they feed reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class CacheLevel:
    """Geometry and latency of one cache level."""

    name: str
    capacity_bytes: int
    line_bytes: int
    latency_cycles: float  # load-to-use latency on a hit at this level

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError(f"cache level {self.name}: sizes must be positive")
        if self.capacity_bytes < self.line_bytes:
            raise ValueError(f"cache level {self.name}: capacity < line size")


class CacheHierarchy:
    """An ordered stack of :class:`CacheLevel` objects."""

    def __init__(self, levels: list[CacheLevel]) -> None:
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        for upper, lower in zip(levels, levels[1:]):
            if lower.capacity_bytes < upper.capacity_bytes:
                raise ValueError(
                    f"cache levels must grow: {lower.name} smaller than {upper.name}"
                )
        self.levels = list(levels)
        self._line_bytes = np.array([[l.line_bytes] for l in levels], float)
        self._capacity_bytes = np.array([[l.capacity_bytes] for l in levels], float)
        latencies = [0.0] + [l.latency_cycles for l in levels]
        self._hit_cycles = [max(b - a, 0.0) for a, b in zip(latencies, latencies[1:])]

    def access_rows(
        self, accesses: np.ndarray, footprint: np.ndarray, reuse: np.ndarray
    ) -> "CacheRows":
        """The model evaluated elementwise over many region executions.

        Every term is ``+ - * /``, ``min``/``max`` or a comparison, so each
        element is bit-identical to evaluating that execution on its own.
        """
        cap = self._capacity_bytes
        with np.errstate(all="ignore"):
            # The terms free of a level's references, for every level at once.
            cold = footprint / self._line_bytes
            capacity_ratio = np.where(footprint <= cap, 0.0, 1.0 - cap / footprint)
            # Streaming access defeats the cache even for in-capacity sets.
            effective = np.minimum(capacity_ratio * reuse + (1.0 - reuse), 1.0)
        references, stall_cycles = accesses, np.zeros_like(accesses)
        level_refs, level_misses = [], []
        for i, hit_cycles in enumerate(self._hit_cycles):
            compulsory = np.minimum(references, cold[i])
            reuses = np.maximum(references - compulsory, 0.0)
            misses = np.minimum(compulsory + reuses * effective[i], references)
            level_refs.append(references)
            level_misses.append(misses)
            # Each *hit* at this level (that missed above) costs its
            # latency beyond the level above.
            stall_cycles = stall_cycles + (references - misses) * hit_cycles
            references = misses
        return CacheRows(level_refs, level_misses, references, stall_cycles)


class CacheRows(NamedTuple):
    """:meth:`CacheHierarchy.access_rows` outcome: one element per execution."""

    references: list[np.ndarray]  # per level
    misses: list[np.ndarray]  # per level
    memory_accesses: np.ndarray  # misses out of the last level
    stall_cycles: np.ndarray  # hierarchy-induced stall estimate (excl. NUMA)


def itanium2_hierarchy() -> CacheHierarchy:
    """The Madison 1.5 GHz geometry used in the paper's Altix systems.

    16 KB L1D (FP loads bypass it, which we fold into the reuse knob),
    256 KB unified L2, 6 MB unified L3; 128-byte L2/L3 lines (64 B in L1,
    using 64 B uniformly keeps compulsory-miss accounting consistent).
    """
    return CacheHierarchy(
        [
            CacheLevel("L1D", 16 * KB, 64, latency_cycles=1.0),
            CacheLevel("L2", 256 * KB, 64, latency_cycles=5.0),
            CacheLevel("L3", 6 * MB, 64, latency_cycles=14.0),
        ]
    )
