"""Bridging work signatures to charged counters (the 'execute' primitive).

Everything the simulated runtimes run — a loop chunk, a solver iteration, a
ghost-cell copy — funnels through :func:`task_rows`: evaluate the cache
model, charge the NUMA page table for the traffic that reaches memory, and
have the processor synthesize the counter vectors, a whole loop at once;
the rows are then attributed to CPUs' open regions in the profiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..machine import (
    CounterVector,
    Machine,
    MemoryPlacementCost,
    PageTable,
    WorkSignature,
)
from ..machine.counters import _wrap
from ..machine.processor import WorkRows
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


@dataclass(frozen=True)
class LoopTask:
    """One loop iteration's (or block's) cost description."""

    work: WorkSignature
    access: RegionAccess | None = None


def task_rows(
    machine: Machine,
    tasks: Sequence[LoopTask],
    cpus: Sequence[int],
    page_table: PageTable | None = None,
) -> np.ndarray:
    """Counter rows of ``tasks`` run in order, ``tasks[i]`` on ``cpus[i]``.

    With a ``page_table``, each task's last-level misses are charged, in
    that order, against the placement of its ``access`` range, first-
    touching unplaced pages on its CPU's node (exactly the OS behaviour
    that creates the GenIDLEST locality bug).
    """
    processor = machine.processor
    rows = WorkRows([task.work for task in tasks], processor.cache)
    placements = None
    if page_table is not None:
        placements = []
        memory = rows.cache.memory_accesses.tolist()
        for task, cpu, accesses in zip(tasks, cpus, memory):
            access = task.access
            if access is None:
                placements.append(None)
                continue
            cost = page_table.charge_accesses(
                access.region, machine.node_of_cpu(cpu), accesses,
                start_byte=access.start_byte, length=access.length,
            )
            placements.append(MemoryPlacementCost(
                cost.local_accesses, cost.remote_accesses,
                cost.latency_cycles * access.latency_multiplier,
            ))
    return processor.execute_rows(rows, placements)


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
    """Execute ``work`` on ``cpu`` (:func:`task_rows` for one task), charging
    the profiler; returns counters.

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
    rows = task_rows(machine, [LoopTask(work, access)], [cpu], page_table)
    vector = _wrap(rows[0])
    if noise > 0.0:
        vector = vector * float(rng.lognormal(0.0, noise))
    profiler.charge(cpu, vector)
    return vector
