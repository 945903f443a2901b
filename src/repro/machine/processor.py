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
from typing import NamedTuple, Sequence

import numpy as np

from . import counters as C
from .cache import CacheHierarchy, itanium2_hierarchy
from .counters import CounterVector, _wrap, counter_slot, counter_width
from .numa import PAGE_SIZE
from .topology import LatencyModel


def _outside_unit(value):
    return (value < 0.0) | (value > 1.0) | (value != value)  # NaN too


#: The checks :class:`WorkSignature` and ``RegionAccess`` make, in the
#: order they make them: (field, refuses(value), message).  Each refusal
#: test takes a float or a column.
_CHECKS = (
    *((name, lambda v: v < 0.0, f"{name} must be non-negative") for name in (
        "flops", "int_ops", "loads", "stores", "branches", "footprint_bytes")),
    *((name, _outside_unit, f"{name} must be in [0,1]")
      for name in ("reuse", "mispredict_rate", "fp_dependency")),
    ("issue_inflation", lambda v: v < 1.0, "issue_inflation must be >= 1"),
    ("start_byte", lambda v: v < 0, "start_byte must be non-negative"),
    ("length", lambda v: v < 0, "length must be non-negative"),
    ("latency_multiplier", lambda v: v < 1.0, "latency_multiplier must be >= 1"),
)


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
        for name, refuses, message in _CHECKS[:10]:
            if refuses(getattr(self, name)):
                raise ValueError(message)

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


@dataclass(frozen=True)
class MemoryPlacementCost:
    """NUMA outcome of the accesses that miss the last cache level."""

    local_accesses: float = 0.0
    remote_accesses: float = 0.0
    latency_cycles: float = 0.0


_FIELDS = tuple(f.name for f in fields(WorkSignature))
_fields_of = attrgetter(*_FIELDS)
_DEFAULTS = [f.default for f in fields(WorkSignature)]
_COLUMNS = (*_FIELDS, "start_byte", "length", "latency_multiplier", "region")


class TaskTable:
    """A loop's tasks as columns, one row per task.

    The :class:`WorkSignature` fields are one float array each.  A row's
    region access is a code into ``regions`` (-1: none), a start byte, a
    length (NaN: to the region's end) and a latency multiplier, as
    ``repro.runtime.RegionAccess`` holds them.  Column arguments broadcast
    against each other and default as the per-task objects do; the first
    row that the per-task objects would refuse raises their
    ``ValueError``.  The columns are read-only.
    """

    __slots__ = (*_COLUMNS, "regions", "_data", "_cache")

    def __init__(self, regions: Sequence[str] = (), *, region=-1,
                 start_byte=0.0, length=None, latency_multiplier=1.0,
                 **work) -> None:
        values = [work.pop(name, default)
                  for name, default in zip(_FIELDS, _DEFAULTS)]
        if work:
            raise TypeError(f"unknown work fields {sorted(work)}")
        values += [start_byte, np.nan if length is None else length,
                   latency_multiplier]
        n = np.broadcast(*values, region).shape or (1,)
        data = np.empty((len(values), *n))
        for row, value in zip(data, values):
            row[...] = value
        codes = np.empty(n, np.int64)
        codes[...] = region
        if len(n) != 1 or ((codes < -1) | (codes >= len(regions))).any():
            raise ValueError("region codes must index regions (or be -1)")
        columns = dict(zip(_COLUMNS, data))
        bad = np.array([refuses(columns[name]) for name, refuses, _ in _CHECKS])
        bad[10:] &= codes >= 0  # a row without a region has no access
        rows = bad.any(axis=0)
        if rows.any():
            raise ValueError(_CHECKS[int(bad[:, rows.argmax()].argmax())][2])
        self._set(regions, data, codes)

    def _set(self, regions: Sequence[str], data: np.ndarray,
             codes: np.ndarray) -> "TaskTable":
        """Take ``data`` (one row per float column) and the region codes."""
        data.flags.writeable = codes.flags.writeable = False
        for name, column in zip(_COLUMNS, (*data, codes)):
            setattr(self, name, column)
        self.regions = tuple(regions)
        self._data = data
        self._cache = None
        return self

    @classmethod
    def of(cls, works: Sequence[WorkSignature], accesses=None) -> "TaskTable":
        """The table of ``works`` and, row by row, ``accesses`` (each a
        ``RegionAccess`` or None; none given: no row has one)."""
        fields = np.fromiter(chain.from_iterable(map(_fields_of, works)), float)
        codes: dict[str, int] = {}
        access = np.array([
            (0.0, np.nan, 1.0, -1) if a is None else (
                a.start_byte, np.nan if a.length is None else a.length,
                a.latency_multiplier, codes.setdefault(a.region, len(codes)))
            for a in (accesses if accesses is not None else [None] * len(works))
        ], float).reshape(-1, 4).T
        data = np.concatenate([fields.reshape(-1, len(_FIELDS)).T, access[:3]])
        return cls.__new__(cls)._set(codes, data, access[3].astype(np.int64))

    def __len__(self) -> int:
        return len(self.region)

    def take(self, index) -> "TaskTable":
        """The rows ``index`` (a slice or an index array), in that order."""
        return TaskTable.__new__(TaskTable)._set(
            self.regions, self._data[:, index], self.region[index])

    def cache_rows(self, hierarchy: CacheHierarchy):
        """The rows' :class:`~repro.machine.cache.CacheRows` under
        ``hierarchy`` (kept for the last hierarchy asked)."""
        if self._cache is None or self._cache[0] is not hierarchy:
            self._cache = (hierarchy, hierarchy.access_rows(
                self.loads + self.stores, self.footprint_bytes, self.reuse))
        return self._cache[1]


class PlacementRows(NamedTuple):
    """The NUMA outcome of each row's last-level misses, as columns; rows
    that are not ``placed`` are all local."""

    placed: np.ndarray
    local: np.ndarray
    remote: np.ndarray
    latency: np.ndarray


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
        batch: "TaskTable | Sequence[WorkSignature]",
        placements: "PlacementRows | Sequence[MemoryPlacementCost | None] | None" = None,
    ) -> np.ndarray:
        """Counter vectors of many region executions, one row each.

        ``placements`` holds each row's NUMA outcome (None: all local); a
        list of signatures or of per-row outcomes is converted to columns
        once, here.  As in :meth:`CacheHierarchy.access_rows`, each row is
        bit-identical to executing its signature alone.
        """
        w = batch if isinstance(batch, TaskTable) else TaskTable.of(batch)
        cache = w.cache_rows(self.cache)
        memory = w.loads + w.stores
        local = cache.memory_accesses
        remote = np.zeros_like(local)
        latency_cycles = local * self.latency.local_cycles
        if placements is not None:
            if not isinstance(placements, PlacementRows):
                placements = PlacementRows(
                    np.array([p is not None for p in placements], bool),
                    *np.array([(0.0, 0.0, 0.0) if p is None else (
                        p.local_accesses, p.remote_accesses, p.latency_cycles)
                        for p in placements], float).reshape(-1, 3).T)
            placed = placements.placed
            local = np.where(placed, placements.local, local)
            remote = np.where(placed, placements.remote, remote)
            latency_cycles = np.where(placed, placements.latency, latency_cycles)

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
