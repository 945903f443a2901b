"""The machine model's formulas evaluated one signature at a time.

This is the scalar cache model and counter synthesis exactly as the
model computed them before it was batched: Python floats, one signature
per call.  ``test_batched_rows.py`` checks every row of
``ProcessorModel.execute_rows`` against it byte for byte, and
``benchmarks/test_component_throughput.py`` times the batch against it.
It imports nothing beyond numpy, so the benchmarks can use it without
the test dependencies.
"""

import numpy as np

from repro.machine import PAGE_SIZE, MemoryPlacementCost
from repro.machine import counters as C
from repro.machine.counters import counter_slot, counter_width


def reference_cache(hierarchy, accesses, footprint, reuse):
    """Per-level (references, misses), memory accesses and stall cycles."""
    if accesses == 0:
        return [(0.0, 0.0)] * len(hierarchy.levels), 0.0, 0.0
    levels = []
    references = accesses
    stall_cycles = 0.0
    prev_latency = 0.0
    for level in hierarchy.levels:
        compulsory = min(references, footprint / level.line_bytes)
        reuses = max(references - compulsory, 0.0)
        if footprint <= level.capacity_bytes:
            capacity_ratio = 0.0
        else:
            capacity_ratio = 1.0 - level.capacity_bytes / footprint
        effective_ratio = capacity_ratio * reuse + (1.0 - reuse)
        misses = compulsory + reuses * min(effective_ratio, 1.0)
        misses = min(misses, references)
        levels.append((references, misses))
        hits = references - misses
        stall_cycles += hits * max(level.latency_cycles - prev_latency, 0.0)
        prev_latency = level.latency_cycles
        references = misses
    return levels, references, stall_cycles


def reference_tlb_misses(model, work):
    if work.memory_accesses == 0:
        return 0.0
    pages = work.footprint_bytes / PAGE_SIZE
    if pages <= model.TLB_ENTRIES:
        return pages
    overflow_fraction = 1.0 - model.TLB_ENTRIES / pages
    rate = overflow_fraction * (1.0 - 0.9 * work.reuse)
    return pages + work.memory_accesses * rate * 0.01


def reference_counters(model, work, placement):
    levels, memory, cache_stalls = reference_cache(
        model.cache, work.memory_accesses, work.footprint_bytes, work.reuse
    )
    if placement is None:
        placement = MemoryPlacementCost(
            memory, 0.0, memory * model.latency.local_cycles
        )
    tlb_misses = reference_tlb_misses(model, work)
    l1d_stalls = (
        cache_stalls + placement.latency_cycles
    ) * model.MEMORY_STALL_EXPOSURE + (
        tlb_misses * model.latency.tlb_miss_penalty_cycles
    )
    fp_stalls = work.flops * work.fp_dependency * model.FP_LATENCY
    branch_stalls = (
        work.branches * work.mispredict_rate * model.BRANCH_PENALTY * 0.6
    )
    frontend_flushes = (
        work.branches * work.mispredict_rate * model.BRANCH_PENALTY * 0.4
    )
    imiss_stalls = (
        max(work.instruction_footprint_bytes - 16 * 1024, 0.0) / 64.0 * 8.0
    )
    stack_stalls = (
        work.memory_accesses * model.STACK_ENGINE_RATE
        * model.STACK_ENGINE_PENALTY
    )
    regdep_stalls = work.int_ops * model.REG_DEP_RATE
    total_stalls = (
        l1d_stalls + fp_stalls + branch_stalls + frontend_flushes
        + imiss_stalls + stack_stalls + regdep_stalls
    )
    instructions = work.instructions
    issued = instructions * work.issue_inflation
    cycles = issued / model.peak_ipc + total_stalls
    time_us = cycles / model.clock_hz * 1e6
    names = [level.name for level in model.cache.levels]
    l2 = levels[names.index("L2")]
    l3 = levels[names.index("L3")]
    values = {
        C.TIME: time_us, C.CPU_CYCLES: cycles,
        C.BACK_END_BUBBLE_ALL: total_stalls,
        C.INSTRUCTIONS_COMPLETED: instructions,
        C.INSTRUCTIONS_ISSUED: issued, C.FP_OPS: work.flops,
        C.L1D_CACHE_MISS_STALLS: l1d_stalls,
        C.BRANCH_MISPREDICT_STALLS: branch_stalls,
        C.INSTRUCTION_MISS_STALLS: imiss_stalls,
        C.STACK_ENGINE_STALLS: stack_stalls, C.FP_STALLS: fp_stalls,
        C.PIPELINE_REGISTER_DEP_STALLS: regdep_stalls,
        C.FRONTEND_FLUSH_STALLS: frontend_flushes,
        C.L2_DATA_REFERENCES: l2[0], C.L2_MISSES: l2[1],
        C.L3_REFERENCES: l3[0], C.L3_MISSES: l3[1],
        C.TLB_MISSES: tlb_misses,
        C.LOCAL_MEMORY_ACCESSES: placement.local_accesses,
        C.REMOTE_MEMORY_ACCESSES: placement.remote_accesses,
    }
    row = np.zeros(counter_width())
    for name, value in values.items():
        row[counter_slot(name)] = value
    return row + 0.0
