"""Simulated OpenMP runtime: fork-join, loop schedules, barriers.

Reproduces the runtime behaviour the MSA case study diagnoses.  A parallel
loop is a task table, one row per iteration (or block), of heterogeneous
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

The team runs each phase of a construct in lockstep, one profiler step
for all threads.  A static loop's chunk owners are fixed; a dynamic or
guided loop first computes its dispatch plan (which thread takes each
chunk, from the chunk costs alone), then runs round ``r`` of it, every
thread's ``r``-th chunk, as one step.  The trace still records a dynamic
loop chunk by chunk in dispatch order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..machine import Machine, PageTable, TaskTable
from ..machine import counters as C
from . import trace as T
from .exec import LoopTask, as_table, task_rows
from .tau import Profiler

#: Slot of the TIME counter, which advances the virtual clocks.
_TIME = C.counter_slot(C.TIME)


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
        if self.chunk is not None and (type(self.chunk) is not int
                                       or self.chunk < 1):
            raise OpenMPError(f"chunk size must be an int >= 1, got {self.chunk!r}")

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
    """

    #: Per-parallel-region fork + join cost on every thread.
    fork_join_overhead_us = 4.0

    def __init__(
        self,
        machine: Machine,
        profiler: Profiler,
        page_table: PageTable | None = None,
        *,
        dispatch_overhead_us: float = 1.0,
    ) -> None:
        if dispatch_overhead_us < 0:
            raise OpenMPError("overheads must be non-negative")
        self.machine = machine
        self.profiler = profiler
        self.page_table = page_table
        self.dispatch_overhead_us = dispatch_overhead_us
        #: Sequence numbers grouping one construct's fork/barrier/join set.
        self._construct_seq = itertools.count(0)
        #: Rows by (table id, construct plan), kept with the table while
        #: the page table stays at placement generation ``_rows_generation``.
        self._rows_memo: dict[tuple, tuple[TaskTable, np.ndarray]] = {}
        self._rows_generation = -1

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

    def _rows(self, tasks: TaskTable, plan: tuple, build) -> np.ndarray:
        """:func:`task_rows` of the rows and CPUs ``build()`` returns for a
        construct ``plan`` over ``tasks``, kept read-only (with the table,
        whose identity keys them) if computing them placed no page, until
        the page table's placement generation moves."""
        pages = self.page_table
        generation = pages.generation if pages is not None else 0
        if generation != self._rows_generation or len(self._rows_memo) >= 64:
            self._rows_memo.clear()
            self._rows_generation = generation
        key = (id(tasks), *plan)
        hit = self._rows_memo.get(key)
        if hit is not None:
            return hit[1]
        rows = task_rows(self.machine, *build(), pages)
        if pages is None or pages.generation == generation:
            rows.flags.writeable = False
            self._rows_memo[key] = (tasks, rows)
        return rows

    def _dispatch(self, tasks: TaskTable, cpus: list[int],
                  chunks: list[tuple[int, int]]) -> list[list[tuple[int, np.ndarray]]]:
        """Each thread's (dispatch index, rows) chunks of a dynamic or
        guided loop, in order.  Chunks go in order to the thread free
        earliest (virtual-clock greedy, which is what the real runtime's
        idle-thread queue converges to; ties to the lower thread), whose
        clock then takes the profiler's additions: the dispatch idle, then
        each row's TIME.  Rows whose placement depends on the thread are
        computed on the chosen CPU at dispatch, so first touches keep the
        dispatch order."""
        pages = self.page_table
        placed = pages is not None and bool((tasks.region >= 0).any())
        if not placed:
            rows = task_rows(self.machine, tasks, ())
            seconds = (rows[:, _TIME] / 1e6).tolist()
        overhead_s = self.dispatch_overhead_us / 1e6
        idle = 0.0 if not overhead_s else float(
            self.machine.processor.idle_vector(overhead_s).as_array()[_TIME]) / 1e6
        heap = [(clock, t) for t, clock in enumerate(self.profiler.clocks(cpus))]
        heapq.heapify(heap)
        plan: list[list[tuple[int, np.ndarray]]] = [[] for _ in cpus]
        for j, (start, stop) in enumerate(chunks):
            clock, t = heapq.heappop(heap)
            clock += idle
            if placed:
                block = task_rows(self.machine, tasks.take(slice(start, stop)),
                                  cpus[t], pages)
                spans = (block[:, _TIME] / 1e6).tolist()
            else:
                block, spans = rows[start:stop], seconds[start:stop]
            for span in spans:
                clock += span
            plan[t].append((j, block))
            heapq.heappush(heap, (clock, t))
        return plan

    # The team steps through each phase of a construct in lockstep; each
    # phase is one block, so the trace keeps the per-thread order of a
    # loop over the threads.
    def _fork(self, cpus: list[int], region_event: str, attrs: dict,
              idle: float) -> None:
        """FORK, enter the region and charge ``idle`` seconds."""
        prof = self.profiler
        with prof.lockstep(cpus):
            if self._trace is not None:
                n = len(cpus)
                self._trace.emit_many(
                    T.FORK, cpus, prof.clocks(cpus), region_event,
                    {"thread": list(range(n)),
                     **{key: [value] * n for key, value in attrs.items()}})
            prof.enter_set(cpus, region_event, group="OPENMP")
            prof.charge_idle_set(cpus, [idle] * len(cpus))

    def _step(self, cpus: list[int], event: str, group: str,
              blocks: list[np.ndarray]) -> list[float]:
        """Each of ``cpus`` runs its block of rows inside ``event``; returns
        each one's compute seconds."""
        prof = self.profiler
        before = prof.clocks(cpus)
        prof.enter_set(cpus, event, group=group)
        prof.charge_set(cpus, blocks)
        prof.exit_set(cpus, event)
        return [b - a for a, b in zip(before, prof.clocks(cpus))]

    def _barrier(self, cpus: list[int], region_event: str,
                 seq: int) -> tuple[float, list[float]]:
        """The implicit barrier's release time and each thread's wait."""
        arrive = self.profiler.clocks(cpus)
        release = max(arrive)
        if self._trace is not None:
            n = len(cpus)
            self._trace.emit_many(T.BARRIER, cpus, arrive, region_event, {
                "thread": list(range(n)), "arrive": arrive,
                "release": [release] * n, "seq": [seq] * n})
        return release, [release - at for at in arrive]

    def _join(self, cpus: list[int], region_event: str, seq: int, *,
              release: float | None = None, idle: float = 0.0) -> None:
        """Wait for ``release`` or charge ``idle`` seconds, exit the region
        and JOIN."""
        prof = self.profiler
        with prof.lockstep(cpus):
            if release is not None:
                prof.advance_set(cpus, [release] * len(cpus))
            prof.charge_idle_set(cpus, [idle] * len(cpus))
            prof.exit_set(cpus, region_event)
            if self._trace is not None:
                n = len(cpus)
                self._trace.emit_many(
                    T.JOIN, cpus, prof.clocks(cpus), region_event,
                    {"thread": list(range(n)), "seq": [seq] * n})

    # -- the main primitive ------------------------------------------------
    def parallel_for(
        self,
        *,
        region_event: str,
        loop_event: str,
        tasks: TaskTable | Sequence[LoopTask],
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
        tasks = as_table(tasks)
        if not len(tasks):
            raise OpenMPError("parallel loop with no tasks")
        cpus = self._cpus_for(n_threads, cpus)
        prof = self.profiler
        chunks = _chunk_plan(len(tasks), n_threads, schedule)
        compute = [0.0] * n_threads
        n_chunks = [0] * n_threads
        fork_join_s = self.fork_join_overhead_us / 2e6

        if schedule.kind == "static":
            # Chunk i goes to thread i (contiguous even blocks) or to
            # thread i mod n (round robin).  All rows are computed before
            # the fork, in the thread-major order the loop runs them in.
            order = sorted(range(len(chunks)), key=lambda ci: ci % n_threads)
            sizes = [chunks[ci][1] - chunks[ci][0] for ci in order]
            rows = self._rows(tasks, (str(schedule), *cpus), lambda: (
                tasks.take(np.concatenate([np.arange(*chunks[ci]) for ci in order])),
                np.repeat([cpus[ci % n_threads] for ci in order], sizes)))
            plan = [[] for _ in cpus]
            stop = 0
            for j, (ci, size) in enumerate(zip(order, sizes)):
                plan[ci % n_threads].append((j, rows[stop:stop + size]))
                stop += size
            dispatch_s = 0.0
        else:  # the plan computes rows after the fork: check accesses first
            if self.page_table is not None:
                self.page_table.ranges(tasks.regions, tasks.region,
                                       tasks.start_byte, tasks.length)
            plan = None
            dispatch_s = self.dispatch_overhead_us / 1e6
        seq = next(self._construct_seq)
        self._fork(cpus, region_event, {"n_threads": n_threads,
                   "schedule": str(schedule), "seq": seq}, fork_join_s)
        if plan is None:
            plan = self._dispatch(tasks, cpus, chunks)

        # Round r: every thread with an r-th chunk pays the dispatch
        # overhead and runs it.  One held-back step over all rounds, keyed
        # by each chunk's place in the thread-major or dispatch order,
        # records the chunks as the per-thread or per-chunk loop did.
        with prof.lockstep(cpus):
            for r in range(max(map(len, plan))):
                team = [t for t in range(n_threads) if len(plan[t]) > r]
                team_cpus = [cpus[t] for t in team]
                with prof.lockstep(team_cpus, [plan[t][r][0] for t in team]):
                    prof.charge_idle_set(team_cpus, [dispatch_s] * len(team))
                    elapsed = self._step(team_cpus, loop_event, "OPENMP_LOOP",
                                         [plan[t][r][1] for t in team])
                for t, seconds in zip(team, elapsed):
                    compute[t] += seconds
                    compute[t] += dispatch_s
                    n_chunks[t] += 1

        # Implicit barrier: everyone waits for the slowest thread.
        release, barrier = self._barrier(cpus, region_event, seq)
        prof.advance_set(cpus, [release] * n_threads)
        self._join(cpus, region_event, seq, idle=fork_join_s)
        return ParallelForResult(
            region_event=region_event,
            loop_event=loop_event,
            schedule=schedule,
            n_threads=n_threads,
            compute_seconds=compute,
            barrier_seconds=barrier,
            chunks=n_chunks,
        )

    # -- other constructs -----------------------------------------------------
    def single(
        self,
        *,
        region_event: str,
        body_event: str,
        work_items: TaskTable | Sequence[LoopTask],
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
        master_cpu = cpus[master_thread]
        work_items = as_table(work_items)
        rows = self._rows(work_items, ("single", master_cpu),
                          lambda: (work_items, master_cpu))
        seq = next(self._construct_seq)
        self._fork(cpus, region_event, {"n_threads": n_threads, "seq": seq}, 0.0)
        [elapsed] = self._step([master_cpu], body_event, "OPENMP", [rows])
        release, _ = self._barrier(cpus, region_event, seq)
        self._join(cpus, region_event, seq, release=release)
        return elapsed
