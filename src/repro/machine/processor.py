"""Itanium 2 (Madison) processor model: work signature → counter vector.

The runtime simulator describes each region execution as a
:class:`WorkSignature` — operation counts plus locality/ predictability
knobs.  The processor model converts one signature into the full Itanium 2
counter vector the paper's formulas consume, honouring two accounting
identities the diagnosis rules rely on:

* **Jarp's stall identity** (the paper's "Total Stall Cycles" formula):
  ``BACK_END_BUBBLE_ALL`` equals the sum of the seven stall components.
* **cycles = ideal issue cycles + stall cycles**, so the derived metric
  ``BACK_END_BUBBLE_ALL / CPU_CYCLES`` behaves like the real counter ratio.

Memory stalls are computed from the cache hierarchy (L2/L3 hit service
time) plus NUMA fabric latency for the accesses that leave the last cache
level — exactly the structure of the paper's "Memory Stalls" formula, whose
coefficients are the level latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from . import counters as C
from .cache import CacheHierarchy, itanium2_hierarchy
from .counters import CounterVector, _wrap, counter_slot, counter_width
from .numa import PAGE_SIZE
from .topology import LatencyModel


@dataclass(frozen=True)
class WorkSignature:
    """Architecture-independent description of one region execution.

    Produced by applications (per chunk/iteration block), scaled by the
    compiler's optimization effects, and consumed by the processor model.

    Attributes
    ----------
    flops / int_ops / loads / stores / branches:
        Dynamic operation counts.
    footprint_bytes:
        Distinct bytes touched.
    reuse:
        Temporal locality knob in [0, 1]: 1 = ideal reuse (only
        compulsory misses when the working set fits), 0 = streaming (every
        access is effectively cold).
    mispredict_rate:
        Fraction of branches mispredicted.
    fp_dependency:
        Dependency-chain severity in [0, 1]: 0 = fully pipelined FP, 1 =
        serial dependence on every FP op.  Governs FP stalls.
    issue_inflation:
        INSTRUCTIONS_ISSUED / INSTRUCTIONS_COMPLETED (speculation, predication,
        replay); ≥ 1.
    instruction_footprint_bytes:
        Code size executed, for instruction-miss stalls.
    """

    flops: float = 0.0
    int_ops: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    branches: float = 0.0
    footprint_bytes: float = 0.0
    reuse: float = 0.9
    mispredict_rate: float = 0.03
    fp_dependency: float = 0.1
    issue_inflation: float = 1.1
    instruction_footprint_bytes: float = 16 * 1024

    def __post_init__(self) -> None:
        for name in ("flops", "int_ops", "loads", "stores", "branches",
                     "footprint_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.reuse <= 1.0:
            raise ValueError("reuse must be in [0,1]")
        if not 0.0 <= self.mispredict_rate <= 1.0:
            raise ValueError("mispredict_rate must be in [0,1]")
        if not 0.0 <= self.fp_dependency <= 1.0:
            raise ValueError("fp_dependency must be in [0,1]")
        if self.issue_inflation < 1.0:
            raise ValueError("issue_inflation must be >= 1")

    @property
    def memory_accesses(self) -> float:
        return self.loads + self.stores

    @property
    def instructions(self) -> float:
        """Completed instructions (ALU + memory + branch)."""
        return self.flops + self.int_ops + self.memory_accesses + self.branches

    def scaled(self, factor: float) -> "WorkSignature":
        """Scale the op counts (not the locality knobs) by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return replace(
            self,
            flops=self.flops * factor,
            int_ops=self.int_ops * factor,
            loads=self.loads * factor,
            stores=self.stores * factor,
            branches=self.branches * factor,
        )

    def __add__(self, other: "WorkSignature") -> "WorkSignature":
        """Combine two signatures (weighted-average locality knobs)."""
        if not isinstance(other, WorkSignature):
            return NotImplemented
        wa = self.memory_accesses or 1.0
        wb = other.memory_accesses or 1.0
        return WorkSignature(
            flops=self.flops + other.flops,
            int_ops=self.int_ops + other.int_ops,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            branches=self.branches + other.branches,
            footprint_bytes=max(self.footprint_bytes, other.footprint_bytes),
            reuse=(self.reuse * wa + other.reuse * wb) / (wa + wb),
            mispredict_rate=(self.mispredict_rate + other.mispredict_rate) / 2,
            fp_dependency=(self.fp_dependency + other.fp_dependency) / 2,
            issue_inflation=max(self.issue_inflation, other.issue_inflation),
            instruction_footprint_bytes=self.instruction_footprint_bytes
            + other.instruction_footprint_bytes,
        )


@dataclass(frozen=True)
class MemoryPlacementCost:
    """NUMA outcome of the accesses that miss the last cache level."""

    local_accesses: float = 0.0
    remote_accesses: float = 0.0
    latency_cycles: float = 0.0


_FIELDS = tuple(f.name for f in fields(WorkSignature))
_fields_of = attrgetter(*_FIELDS)


class WorkRows:
    """A batch of signatures as one float array per field (in batch order),
    plus the batch's cache outcome, a :class:`~repro.machine.cache.CacheRows`."""

    def __init__(self, works: Sequence[WorkSignature], cache: CacheHierarchy) -> None:
        table = np.fromiter(chain.from_iterable(map(_fields_of, works)), float)
        self.__dict__.update(zip(_FIELDS, table.reshape(-1, len(_FIELDS)).T.copy()))
        self.cache = cache.access_rows(
            self.loads + self.stores, self.footprint_bytes, self.reuse
        )


class ProcessorModel:
    """Synthesizes Itanium 2 counter vectors from work signatures.

    Parameters
    ----------
    clock_hz:
        1.5 GHz for the Madison parts in the paper's Altix systems.
    peak_ipc:
        Issue width (6 for Itanium 2); ideal cycles = issued / peak_ipc.
    """

    #: Cycles lost per mispredicted branch (front-end flush on Itanium 2).
    BRANCH_PENALTY = 12.0
    #: FP result latency (cycles) exposed per dependent FP op.
    FP_LATENCY = 4.0
    #: Fraction of memory ops that touch the register stack engine.
    STACK_ENGINE_RATE = 0.002
    STACK_ENGINE_PENALTY = 8.0
    #: Fraction of memory latency the pipeline actually exposes as stall:
    #: compiler scheduling, prefetch, and the in-order core's limited
    #: overlap hide the rest.  Calibrated so compute kernels land in the
    #: 0.4-0.8 stalls/cycle band real Itanium 2 profiles show.
    MEMORY_STALL_EXPOSURE = 0.35
    #: Register-dependency stall cycles per non-FP ALU op (scheduling holes).
    REG_DEP_RATE = 0.01
    #: TLB reach before misses kick in, and miss cost.
    TLB_ENTRIES = 128

    #: Entries kept by each memo before it is cleared.  Callers that run
    #: one signature at a time (serial stages, instrumented code, waits)
    #: repeat a handful of them; loops go through :meth:`execute_rows`.
    MEMO_SIZE = 1024

    def __init__(
        self,
        *,
        clock_hz: float = 1.5e9,
        peak_ipc: float = 6.0,
        cache: CacheHierarchy | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        if clock_hz <= 0 or peak_ipc <= 0:
            raise ValueError("clock and ipc must be positive")
        self.clock_hz = clock_hz
        self.peak_ipc = peak_ipc
        self.cache = cache or itanium2_hierarchy()
        self.latency = latency or LatencyModel()
        # Memos over pure functions of the arguments and the parameters
        # above, which are fixed once the model is built.
        self._execute_memo: dict[tuple, np.ndarray] = {}
        self._idle_memo: dict[float, np.ndarray] = {}

    # -- main entry ----------------------------------------------------------

    def execute(
        self,
        work: WorkSignature,
        placement: MemoryPlacementCost | None = None,
    ) -> CounterVector:
        """Counter vector for one region execution.

        ``placement`` carries the NUMA outcome for last-level misses; when
        None, all memory traffic is assumed local (single-node run).  The
        result depends only on the arguments and the model's parameters,
        so it is memoised per model on ``(work, placement)``; each call
        returns its own copy.
        """
        key = (work, placement)
        counters = self._execute_memo.get(key)
        if counters is None:
            counters = self.execute_rows([work], [placement])[0]
            _remember(self._execute_memo, key, counters, self.MEMO_SIZE)
        return _wrap(counters.copy())

    def execute_rows(
        self,
        batch: "Sequence[WorkSignature] | WorkRows",
        placements: Sequence[MemoryPlacementCost | None] | None = None,
    ) -> np.ndarray:
        """Counter vectors of many region executions, one row each.

        ``placements`` holds each row's NUMA outcome (None: all local).  As
        in :meth:`CacheHierarchy.access_rows`, each row is bit-identical to
        executing its signature alone.
        """
        w = batch if isinstance(batch, WorkRows) else WorkRows(batch, self.cache)
        cache = w.cache
        memory = w.loads + w.stores
        local = cache.memory_accesses.copy()
        remote = np.zeros_like(local)
        latency_cycles = local * self.latency.local_cycles
        for i, p in enumerate(placements or ()):
            if p is not None:
                local[i], remote[i] = p.local_accesses, p.remote_accesses
                latency_cycles[i] = p.latency_cycles

        # --- stall components (Jarp decomposition) -------------------------
        # Pages beyond TLB reach cause refills proportional to traffic
        # (streaming access thrashes harder); within reach, only the
        # compulsory refills.
        pages = w.footprint_bytes / PAGE_SIZE
        with np.errstate(all="ignore"):
            overflow_fraction = 1.0 - self.TLB_ENTRIES / pages
            rate = overflow_fraction * (1.0 - 0.9 * w.reuse)
            tlb_misses = np.where(
                memory == 0,
                0.0,
                np.where(
                    pages <= self.TLB_ENTRIES, pages, pages + memory * rate * 0.01
                ),
            )
        l1d_stalls = (
            cache.stall_cycles + latency_cycles
        ) * self.MEMORY_STALL_EXPOSURE + (
            tlb_misses * self.latency.tlb_miss_penalty_cycles
        )
        fp_stalls = w.flops * w.fp_dependency * self.FP_LATENCY
        branch_stalls = w.branches * w.mispredict_rate * self.BRANCH_PENALTY * 0.6
        frontend_flushes = (
            w.branches * w.mispredict_rate * self.BRANCH_PENALTY * 0.4
        )
        imiss_stalls = (
            np.maximum(w.instruction_footprint_bytes - 16 * 1024, 0.0) / 64.0 * 8.0
        )
        stack_stalls = memory * self.STACK_ENGINE_RATE * self.STACK_ENGINE_PENALTY
        regdep_stalls = w.int_ops * self.REG_DEP_RATE

        total_stalls = (
            l1d_stalls
            + fp_stalls
            + branch_stalls
            + frontend_flushes
            + imiss_stalls
            + stack_stalls
            + regdep_stalls
        )

        instructions = w.flops + w.int_ops + memory + w.branches
        issued = instructions * w.issue_inflation
        ideal_cycles = issued / self.peak_ipc
        cycles = ideal_cycles + total_stalls
        time_us = cycles / self.clock_hz * 1e6

        names = [level.name for level in self.cache.levels]
        l2, l3 = names.index("L2"), names.index("L3")
        rows = np.zeros((len(memory), counter_width()))
        for slot, column in zip(_EXECUTE_SLOTS, (
            time_us, cycles, total_stalls, instructions, issued, w.flops,
            l1d_stalls, branch_stalls, imiss_stalls, stack_stalls, fp_stalls,
            regdep_stalls, frontend_flushes,
            cache.references[l2], cache.misses[l2],
            cache.references[l3], cache.misses[l3], tlb_misses,
            local, remote,
        )):
            rows[:, slot] = column
        rows += 0.0  # -0.0 → +0.0
        return rows

    #: Spin-wait instruction profile: a barrier wait runs a tight
    #: load-compare-branch loop, not a halted pipeline.  Issued IPC and the
    #: exposed stall fraction below match OpenMP runtime busy-wait loops.
    SPIN_IPC_ISSUED = 2.0
    SPIN_STALL_FRACTION = 0.25

    def idle_vector(self, seconds: float) -> CounterVector:
        """Counters for a CPU spin-waiting (barrier/lock/dispatch wait).

        The thread issues the spin loop's instructions (which is why waits
        draw power and show activity in real profiles) but completes no
        useful work for the application; a quarter of the cycles stall on
        the flag load's dependencies.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        counters = self._idle_memo.get(seconds)
        if counters is None:
            counters = self._idle_counters(seconds)
            _remember(self._idle_memo, seconds, counters, self.MEMO_SIZE)
        return _wrap(counters.copy())

    def _idle_counters(self, seconds: float) -> np.ndarray:
        seconds = seconds + 0.0  # -0.0 → +0.0: no negative zeros below
        cycles = seconds * self.clock_hz
        issued = cycles * self.SPIN_IPC_ISSUED
        stalls = cycles * self.SPIN_STALL_FRACTION
        counters = np.zeros(counter_width())
        counters[_IDLE_SLOTS] = [
            seconds * 1e6, cycles, stalls, stalls, issued, issued * 0.95,
        ]
        return counters


_EXECUTE_SLOTS = [
    counter_slot(name) for name in (
        C.TIME, C.CPU_CYCLES, C.BACK_END_BUBBLE_ALL, C.INSTRUCTIONS_COMPLETED,
        C.INSTRUCTIONS_ISSUED, C.FP_OPS,
        C.L1D_CACHE_MISS_STALLS, C.BRANCH_MISPREDICT_STALLS,
        C.INSTRUCTION_MISS_STALLS, C.STACK_ENGINE_STALLS, C.FP_STALLS,
        C.PIPELINE_REGISTER_DEP_STALLS, C.FRONTEND_FLUSH_STALLS,
        C.L2_DATA_REFERENCES, C.L2_MISSES, C.L3_REFERENCES, C.L3_MISSES,
        C.TLB_MISSES, C.LOCAL_MEMORY_ACCESSES, C.REMOTE_MEMORY_ACCESSES,
    )
]
_IDLE_SLOTS = [
    counter_slot(name) for name in (
        C.TIME, C.CPU_CYCLES, C.BACK_END_BUBBLE_ALL,
        C.PIPELINE_REGISTER_DEP_STALLS, C.INSTRUCTIONS_ISSUED,
        C.INSTRUCTIONS_COMPLETED,
    )
]


def _remember(memo: dict, key, value, size: int) -> None:
    if len(memo) >= size:
        memo.clear()
    memo[key] = value
