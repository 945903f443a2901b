"""Simulated OpenMP runtime: fork-join, loop schedules, barriers.

Reproduces the runtime behaviour the MSA case study diagnoses.  A parallel
loop is a list of per-iteration (or per-block) tasks with heterogeneous
costs; the schedule decides which thread runs which chunk and when:

* ``static`` (no chunk) — contiguous even blocks, OpenMP's default.  Load
  imbalance = variance of per-block total cost.
* ``static,k`` — round-robin chunks of k iterations.
* ``dynamic,k`` — chunks of k handed to the next idle thread; balances
  heterogeneous tasks at the price of a per-dispatch overhead.
* ``guided,k`` — exponentially shrinking chunks with minimum k.

The simulator executes chunks against virtual per-thread clocks, charges
compute cost to the *loop event* and barrier waiting to the enclosing
*region event*, which is precisely the structure PerfExplorer's imbalance
rule keys on (a thread that leaves the inner loop early waits longer in the
outer region → strong negative correlation between the two events across
threads).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..machine import Machine, PageTable
from . import trace as T
from .exec import LoopTask, task_rows
from .tau import Profiler


class OpenMPError(Exception):
    """Raised for invalid schedules or loop configuration."""


@dataclass(frozen=True)
class Schedule:
    """An OpenMP ``schedule(kind[, chunk])`` clause."""

    kind: str = "static"
    chunk: int | None = None

    VALID_KINDS = ("static", "dynamic", "guided")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise OpenMPError(
                f"unknown schedule kind {self.kind!r}; expected {self.VALID_KINDS}"
            )
        if self.chunk is not None and self.chunk < 1:
            raise OpenMPError("chunk size must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        """Parse ``"dynamic,1"`` / ``"static"`` style clause text."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) == 1:
            return cls(parts[0])
        if len(parts) == 2:
            try:
                return cls(parts[0], int(parts[1]))
            except ValueError:
                raise OpenMPError(f"bad chunk in schedule {text!r}") from None
        raise OpenMPError(f"bad schedule clause {text!r}")

    def __str__(self) -> str:
        return self.kind if self.chunk is None else f"{self.kind},{self.chunk}"


@dataclass
class ParallelForResult:
    """Outcome of one simulated parallel loop."""

    region_event: str
    loop_event: str
    schedule: Schedule
    n_threads: int
    #: Per-thread compute seconds inside the loop body.
    compute_seconds: list[float]
    #: Per-thread barrier-wait seconds at the implicit end-of-loop barrier.
    barrier_seconds: list[float]
    #: Chunks executed per thread.
    chunks: list[int]

    @property
    def makespan_seconds(self) -> float:
        return max(
            c + b for c, b in zip(self.compute_seconds, self.barrier_seconds)
        )

    @property
    def imbalance_ratio(self) -> float:
        """stddev/mean of per-thread compute time — the paper's imbalance
        statistic (> 0.25 triggers the rule)."""
        arr = np.asarray(self.compute_seconds)
        mean = arr.mean()
        return float(arr.std() / mean) if mean > 0 else 0.0


def _chunk_plan(n_tasks: int, n_threads: int, schedule: Schedule) -> list[tuple[int, int]]:
    """Materialize the chunk sequence as (start, stop) index pairs."""
    if schedule.kind == "static" and schedule.chunk is None:
        # contiguous even blocks
        base, extra = divmod(n_tasks, n_threads)
        chunks = []
        start = 0
        for t in range(n_threads):
            size = base + (1 if t < extra else 0)
            if size:
                chunks.append((start, start + size))
            start += size
        return chunks
    if schedule.kind in ("static", "dynamic"):
        k = schedule.chunk or 1
        return [(i, min(i + k, n_tasks)) for i in range(0, n_tasks, k)]
    # guided: chunk = max(remaining / (2 * threads), k), shrinking
    k = schedule.chunk or 1
    chunks = []
    start = 0
    while start < n_tasks:
        remaining = n_tasks - start
        size = max(remaining // (2 * n_threads), k)
        size = min(size, remaining)
        chunks.append((start, start + size))
        start += size
    return chunks


class OpenMPRuntime:
    """Fork-join execution of parallel loops over the machine model.

    Parameters
    ----------
    dispatch_overhead_us:
        Cost a thread pays to grab one chunk from the dynamic/guided queue
        (lock + fetch).  Static schedules pay nothing per chunk.
    fork_join_overhead_us:
        Per-parallel-region fork + join cost on every thread.
    """

    def __init__(
        self,
        machine: Machine,
        profiler: Profiler,
        page_table: PageTable | None = None,
        *,
        dispatch_overhead_us: float = 1.0,
        fork_join_overhead_us: float = 4.0,
    ) -> None:
        if dispatch_overhead_us < 0 or fork_join_overhead_us < 0:
            raise OpenMPError("overheads must be non-negative")
        self.machine = machine
        self.profiler = profiler
        self.page_table = page_table
        self.dispatch_overhead_us = dispatch_overhead_us
        self.fork_join_overhead_us = fork_join_overhead_us
        #: Sequence numbers grouping one construct's fork/barrier/join set.
        self._construct_seq = itertools.count(0)

    @property
    def _trace(self) -> "T.EventTrace | None":
        return self.profiler.trace

    # -- helpers --------------------------------------------------------------
    def _cpus_for(self, n_threads: int, cpus: Sequence[int] | None) -> list[int]:
        if cpus is None:
            cpus = list(range(n_threads))
        if len(cpus) != n_threads:
            raise OpenMPError(f"need {n_threads} cpus, got {len(cpus)}")
        if len(set(cpus)) != n_threads:
            raise OpenMPError("cpu list contains duplicates")
        for c in cpus:
            if not 0 <= c < self.machine.n_cpus:
                raise OpenMPError(
                    f"cpu {c} out of range for machine with {self.machine.n_cpus}"
                )
        return list(cpus)

    # -- the main primitive ------------------------------------------------
    def parallel_for(
        self,
        *,
        region_event: str,
        loop_event: str,
        tasks: Sequence[LoopTask],
        n_threads: int,
        schedule: Schedule | str = Schedule("static"),
        cpus: Sequence[int] | None = None,
    ) -> ParallelForResult:
        """Simulate ``#pragma omp parallel for schedule(...)``.

        The region event brackets the whole construct on every thread
        (fork/join + barrier waits live there); the loop event receives the
        per-chunk compute cost.
        """
        if isinstance(schedule, str):
            schedule = Schedule.parse(schedule)
        if n_threads < 1:
            raise OpenMPError("need at least one thread")
        if not tasks:
            raise OpenMPError("parallel loop with no tasks")
        cpus = self._cpus_for(n_threads, cpus)
        prof = self.profiler
        seq = next(self._construct_seq)

        for t, cpu in enumerate(cpus):
            if self._trace is not None:
                self._trace.emit(
                    T.FORK, cpu, prof.clock(cpu), region_event,
                    {"thread": t, "n_threads": n_threads,
                     "schedule": str(schedule), "seq": seq},
                )
            prof.enter(cpu, region_event, group="OPENMP")
            prof.charge_idle(cpu, self.fork_join_overhead_us / 2e6)

        chunks = _chunk_plan(len(tasks), n_threads, schedule)
        compute = [0.0] * n_threads
        n_chunks = [0] * n_threads

        if schedule.kind == "static":
            # Chunk i goes to thread i (contiguous even blocks) or to
            # thread i mod n (round robin).  The rows of the whole loop are
            # computed at once, in the thread-major order it executes in.
            plan = sorted(range(len(chunks)), key=lambda ci: ci % n_threads)
            order = [i for ci in plan for i in range(*chunks[ci])]
            rows = task_rows(
                self.machine,
                [tasks[i] for i in order],
                [cpus[ci % n_threads] for ci in plan for _ in range(*chunks[ci])],
                self.page_table,
            )
            offset = 0
            for ci in plan:
                t, size = ci % n_threads, chunks[ci][1] - chunks[ci][0]
                chunk_rows = rows[offset : offset + size]
                compute[t] += self._run_chunk(cpus[t], loop_event, chunk_rows)
                offset += size
                n_chunks[t] += 1
        else:
            # dynamic/guided: chunks dispatched in order to the earliest-
            # available thread (virtual-clock greedy, which is what the
            # real runtime's idle-thread queue converges to).  Where no
            # task's placement depends on the thread, the rows are known
            # before dispatch.
            placed = self.page_table is not None and any(
                task.access is not None for task in tasks
            )
            rows = task_rows(self.machine, tasks, ()) if not placed else None
            heap = [(prof.clock(cpus[t]), t) for t in range(n_threads)]
            heapq.heapify(heap)
            for start, stop in chunks:
                _, t = heapq.heappop(heap)
                prof.charge_idle(cpus[t], self.dispatch_overhead_us / 1e6)
                chunk_rows = rows[start:stop] if not placed else task_rows(
                    self.machine, tasks[start:stop],
                    [cpus[t]] * (stop - start), self.page_table,
                )
                compute[t] += self._run_chunk(cpus[t], loop_event, chunk_rows)
                compute[t] += self.dispatch_overhead_us / 1e6
                n_chunks[t] += 1
                heapq.heappush(heap, (prof.clock(cpus[t]), t))

        # Implicit barrier: everyone waits for the slowest thread.
        barrier_at = max(prof.clock(c) for c in cpus)
        if self._trace is not None:
            for t in range(n_threads):
                self._trace.emit(
                    T.BARRIER, cpus[t], prof.clock(cpus[t]), region_event,
                    {"thread": t, "arrive": prof.clock(cpus[t]),
                     "release": barrier_at, "seq": seq},
                )
        barrier = [prof.advance_clock_to(cpus[t], barrier_at) for t in range(n_threads)]

        for t, cpu in enumerate(cpus):
            prof.charge_idle(cpu, self.fork_join_overhead_us / 2e6)
            prof.exit(cpu, region_event)
            if self._trace is not None:
                self._trace.emit(
                    T.JOIN, cpu, prof.clock(cpu), region_event,
                    {"thread": t, "seq": seq},
                )

        return ParallelForResult(
            region_event=region_event,
            loop_event=loop_event,
            schedule=schedule,
            n_threads=n_threads,
            compute_seconds=compute,
            barrier_seconds=barrier,
            chunks=n_chunks,
        )

    def _run_chunk(self, cpu: int, loop_event: str, rows: np.ndarray) -> float:
        """Charge one chunk's counter rows inside the loop event; returns
        compute secs."""
        prof = self.profiler
        t0 = prof.clock(cpu)
        prof.enter(cpu, loop_event, group="OPENMP_LOOP")
        prof.charge_rows(cpu, rows)
        prof.exit(cpu, loop_event)
        return prof.clock(cpu) - t0

    # -- other constructs -----------------------------------------------------
    def single(
        self,
        *,
        region_event: str,
        body_event: str,
        work_items: Sequence[LoopTask],
        n_threads: int,
        cpus: Sequence[int] | None = None,
        master_thread: int = 0,
    ) -> float:
        """Simulate ``#pragma omp single`` / master-only work.

        One thread executes every item; the others wait at the closing
        barrier.  This is the unoptimized ``exchange_var`` pattern — the
        master thread performing all ghost-cell copies sequentially.
        Returns the master's compute seconds.
        """
        if n_threads < 1:
            raise OpenMPError("need at least one thread")
        cpus = self._cpus_for(n_threads, cpus)
        if not 0 <= master_thread < n_threads:
            raise OpenMPError("master_thread out of range")
        prof = self.profiler
        seq = next(self._construct_seq)
        for t, cpu in enumerate(cpus):
            if self._trace is not None:
                self._trace.emit(
                    T.FORK, cpu, prof.clock(cpu), region_event,
                    {"thread": t, "n_threads": n_threads, "seq": seq},
                )
            prof.enter(cpu, region_event, group="OPENMP")
        master_cpu = cpus[master_thread]
        t0 = prof.clock(master_cpu)
        prof.enter(master_cpu, body_event, group="OPENMP")
        prof.charge_rows(master_cpu, task_rows(
            self.machine, work_items, [master_cpu] * len(work_items),
            self.page_table,
        ))
        prof.exit(master_cpu, body_event)
        elapsed = prof.clock(master_cpu) - t0
        barrier_at = max(prof.clock(c) for c in cpus)
        if self._trace is not None:
            for t in range(n_threads):
                self._trace.emit(
                    T.BARRIER, cpus[t], prof.clock(cpus[t]), region_event,
                    {"thread": t, "arrive": prof.clock(cpus[t]),
                     "release": barrier_at, "seq": seq},
                )
        for t, cpu in enumerate(cpus):
            prof.advance_clock_to(cpu, barrier_at)
            prof.exit(cpu, region_event)
            if self._trace is not None:
                self._trace.emit(
                    T.JOIN, cpu, prof.clock(cpu), region_event,
                    {"thread": t, "seq": seq},
                )
        return elapsed
