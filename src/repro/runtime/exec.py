"""Bridging work signatures to charged counters (the 'execute' primitive).

Everything the simulated runtimes run — a loop chunk, a solver iteration, a
ghost-cell copy — funnels through :func:`task_rows` as one task table:
evaluate the cache model, charge the NUMA page table for the traffic that
reaches memory, and have the processor synthesize the counter vectors, a
whole loop at once; the rows are then attributed to CPUs' open regions in
the profiler.  :class:`LoopTask` and :class:`RegionAccess` describe one
task; lists of them are converted to a table once, by :func:`as_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..machine import CounterVector, Machine, PageTable, TaskTable, WorkSignature
from ..machine.counters import _wrap
from ..machine.processor import _CHECKS, PlacementRows
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
        for name, refuses, message in _CHECKS[10:]:
            if getattr(self, name) is not None and refuses(getattr(self, name)):
                raise ValueError(message)


@dataclass(frozen=True)
class LoopTask:
    """One loop iteration's (or block's) cost description."""

    work: WorkSignature
    access: RegionAccess | None = None


def as_table(tasks: "TaskTable | Sequence[LoopTask]") -> TaskTable:
    """``tasks`` as a :class:`~repro.machine.processor.TaskTable`: a list
    of :class:`LoopTask` is converted once, here."""
    if isinstance(tasks, TaskTable):
        return tasks
    return TaskTable.of([task.work for task in tasks],
                        [task.access for task in tasks])


def task_rows(
    machine: Machine,
    tasks: "TaskTable | Sequence[LoopTask]",
    cpus: "Sequence[int] | int",
    page_table: PageTable | None = None,
) -> np.ndarray:
    """Counter rows of ``tasks`` run in order, row ``i`` on ``cpus[i]`` (or
    all on one CPU).

    With a ``page_table``, each row's last-level misses are charged, in
    that order, against the placement of its region range, first-touching
    unplaced pages on its CPU's node (exactly the OS behaviour that
    creates the GenIDLEST locality bug).
    """
    table = as_table(tasks)
    processor = machine.processor
    placements = None
    has = table.region >= 0
    if page_table is not None and has.any():
        cpus = np.broadcast_to(np.asarray(cpus, np.int64), has.shape)
        for cpu in (cpus[has].min(), cpus[has].max()):
            machine.node_of_cpu(int(cpu))
        local, remote, latency = page_table.charge_rows(
            table.regions, table.region, table.start_byte, table.length,
            cpus // machine.topology.cpus_per_node,
            table.cache_rows(processor.cache).memory_accesses)
        placements = PlacementRows(has, local, remote,
                                   latency * table.latency_multiplier)
    return processor.execute_rows(table, placements)


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
