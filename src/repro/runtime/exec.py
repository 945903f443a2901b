"""Bridging work signatures to charged counters (the 'execute' primitive).

Everything the simulated runtimes run — a loop chunk, a solver iteration, a
ghost-cell copy — funnels through :func:`execute_work`: evaluate the cache
model, charge the NUMA page table for the traffic that reaches memory, have
the processor synthesize the counter vector, and attribute it to the CPU's
open region in the profiler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine import (
    CounterVector,
    Machine,
    MemoryPlacementCost,
    PageTable,
    WorkSignature,
)
from .tau import Profiler


@dataclass(frozen=True)
class RegionAccess:
    """A byte range of a named memory region that a task reads/writes.

    ``latency_multiplier`` scales the fabric latency of this access batch —
    the hook higher layers use for effects the page table cannot see, such
    as memory-controller contention when many threads hammer one node.
    """

    region: str
    start_byte: int = 0
    length: int | None = None  # None = whole region
    latency_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.start_byte < 0:
            raise ValueError("start_byte must be non-negative")
        if self.length is not None and self.length < 0:
            raise ValueError("length must be non-negative")
        if self.latency_multiplier < 1.0:
            raise ValueError("latency_multiplier must be >= 1")


def execute_work(
    machine: Machine,
    profiler: Profiler,
    cpu: int,
    work: WorkSignature,
    *,
    page_table: PageTable | None = None,
    access: RegionAccess | None = None,
    rng: np.random.Generator | None = None,
    noise: float = 0.0,
) -> CounterVector:
    """Execute ``work`` on ``cpu``, charging the profiler; returns counters.

    When ``page_table`` and ``access`` are given, the accesses that miss the
    last cache level are charged against the page placement of the given
    range (first-touching unplaced pages on this CPU's node — exactly the
    OS behaviour that creates the GenIDLEST locality bug).

    ``noise`` adds multiplicative measurement jitter (lognormal with the
    given sigma) to the charged counters — how regression-sentinel runs
    model real run-to-run variation.  All randomness flows through the
    *explicit* ``rng`` generator; there is deliberately no global-state
    fallback, so a seeded ``numpy.random.Generator`` makes
    baseline-vs-candidate comparisons bit-reproducible.
    """
    if noise < 0.0:
        raise ValueError("noise must be non-negative")
    if noise > 0.0 and rng is None:
        raise ValueError(
            "execute_work: noise requires an explicit numpy.random.Generator "
            "(pass rng=...); implicit global RNG state is not supported"
        )
    processor = machine.processor
    placement: MemoryPlacementCost | None = None
    if page_table is not None and access is not None:
        cost = page_table.charge_accesses(
            access.region,
            machine.node_of_cpu(cpu),
            processor.cache_result(work).memory_accesses,
            start_byte=access.start_byte,
            length=access.length,
        )
        placement = MemoryPlacementCost(
            local_accesses=cost.local_accesses,
            remote_accesses=cost.remote_accesses,
            latency_cycles=cost.latency_cycles * access.latency_multiplier,
        )
    vector = processor.execute(work, placement)
    if noise > 0.0:
        vector = vector * float(rng.lognormal(0.0, noise))
    profiler.charge(cpu, vector)
    return vector
