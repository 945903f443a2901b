"""Tests for the processor model's counter synthesis and its identities."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (
    CounterVector,
    MemoryPlacementCost,
    ProcessorModel,
    WorkSignature,
    altix_300,
    altix_3600,
    uniform_machine,
)
from repro.machine import counters as C

KB = 1024
MB = 1024 * KB


def compute_sig(**over):
    base = dict(
        flops=1e6,
        int_ops=2e5,
        loads=6e5,
        stores=2e5,
        branches=1e5,
        footprint_bytes=512 * KB,
        reuse=0.9,
    )
    base.update(over)
    return WorkSignature(**base)


class TestWorkSignature:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkSignature(flops=-1)
        with pytest.raises(ValueError):
            WorkSignature(reuse=2)
        with pytest.raises(ValueError):
            WorkSignature(issue_inflation=0.5)
        with pytest.raises(ValueError):
            WorkSignature(mispredict_rate=-0.1)

    def test_instructions_sum(self):
        s = WorkSignature(flops=10, int_ops=20, loads=5, stores=5, branches=2)
        assert s.instructions == 42
        assert s.memory_accesses == 10

    def test_scaled(self):
        s = compute_sig().scaled(2.0)
        assert s.flops == 2e6 and s.reuse == 0.9
        with pytest.raises(ValueError):
            compute_sig().scaled(-1)


class TestProcessorModel:
    def test_stall_identity(self):
        """BACK_END_BUBBLE_ALL == sum of the Jarp components."""
        v = ProcessorModel().execute(compute_sig())
        assert v[C.BACK_END_BUBBLE_ALL] == pytest.approx(v.total_stalls(), rel=1e-9)

    def test_cycles_exceed_stalls(self):
        v = ProcessorModel().execute(compute_sig())
        assert v[C.CPU_CYCLES] > v[C.BACK_END_BUBBLE_ALL] > 0

    def test_time_consistent_with_cycles(self):
        p = ProcessorModel()
        v = p.execute(compute_sig())
        assert v[C.TIME] == pytest.approx(v[C.CPU_CYCLES] / p.clock_hz * 1e6)

    def test_issued_at_least_completed(self):
        v = ProcessorModel().execute(compute_sig(issue_inflation=1.3))
        assert v[C.INSTRUCTIONS_ISSUED] == pytest.approx(
            v[C.INSTRUCTIONS_COMPLETED] * 1.3
        )

    def test_larger_footprint_is_slower(self):
        p = ProcessorModel()
        fast = p.execute(compute_sig(footprint_bytes=64 * KB))
        slow = p.execute(compute_sig(footprint_bytes=64 * MB))
        assert slow[C.CPU_CYCLES] > fast[C.CPU_CYCLES]
        assert slow[C.L3_MISSES] > fast[C.L3_MISSES]

    def test_remote_placement_is_slower_than_local(self):
        p = ProcessorModel()
        sig = compute_sig(footprint_bytes=64 * MB, reuse=0.5)
        local_v = p.execute(sig)
        mem_accesses = local_v[C.LOCAL_MEMORY_ACCESSES]
        remote = MemoryPlacementCost(
            local_accesses=0.0,
            remote_accesses=mem_accesses,
            latency_cycles=mem_accesses * p.latency.memory_latency(4),
        )
        remote_v = p.execute(sig, remote)
        assert remote_v[C.CPU_CYCLES] > local_v[C.CPU_CYCLES]
        assert remote_v[C.REMOTE_MEMORY_ACCESSES] == pytest.approx(mem_accesses)
        assert remote_v[C.LOCAL_MEMORY_ACCESSES] == 0.0

    def test_fp_dependency_drives_fp_stalls(self):
        p = ProcessorModel()
        pipelined = p.execute(compute_sig(fp_dependency=0.0))
        serial = p.execute(compute_sig(fp_dependency=1.0))
        assert pipelined[C.FP_STALLS] == 0.0
        assert serial[C.FP_STALLS] > 0
        assert serial[C.CPU_CYCLES] > pipelined[C.CPU_CYCLES]

    def test_mispredicts_cost_cycles(self):
        p = ProcessorModel()
        good = p.execute(compute_sig(mispredict_rate=0.0))
        bad = p.execute(compute_sig(mispredict_rate=0.3))
        assert bad[C.BRANCH_MISPREDICT_STALLS] > 0
        assert bad[C.FRONTEND_FLUSH_STALLS] > 0
        assert good[C.BRANCH_MISPREDICT_STALLS] == 0.0
        assert bad[C.CPU_CYCLES] > good[C.CPU_CYCLES]

    def test_idle_vector_is_a_spin_wait(self):
        p = ProcessorModel()
        v = p.idle_vector(0.5)
        assert v[C.CPU_CYCLES] == pytest.approx(0.5 * p.clock_hz)
        # spin loops issue instructions (they draw power!) but stall only
        # on the flag load, not on the whole pipeline
        assert v[C.BACK_END_BUBBLE_ALL] == pytest.approx(
            v[C.CPU_CYCLES] * p.SPIN_STALL_FRACTION
        )
        assert v[C.INSTRUCTIONS_ISSUED] == pytest.approx(
            v[C.CPU_CYCLES] * p.SPIN_IPC_ISSUED
        )
        assert v[C.FP_OPS] == 0.0  # no useful work
        assert v[C.TIME] == pytest.approx(0.5e6)
        with pytest.raises(ValueError):
            p.idle_vector(-1)

    def test_execute_results_are_independent_copies(self):
        pm = ProcessorModel()
        work = compute_sig()
        placement = MemoryPlacementCost(1e3, 2e3, 5e5)
        first = pm.execute(work, placement)
        want = first.as_dict()
        first += CounterVector({C.TIME: 1e9, C.FP_OPS: 1.0})
        again = pm.execute(work, placement)
        assert again.as_dict() == want
        assert again.as_dict() == ProcessorModel().execute(
            work, placement).as_dict()
        idle = pm.idle_vector(1e-3)
        idle += idle
        assert pm.idle_vector(1e-3).as_dict() == \
            ProcessorModel().idle_vector(1e-3).as_dict()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcessorModel(clock_hz=0)


class TestMachines:
    def test_altix_configs(self):
        a300 = altix_300()
        assert a300.n_cpus == 16 and a300.n_nodes == 8
        a3600 = altix_3600()
        assert a3600.n_cpus == 512 and a3600.n_nodes == 256
        assert a300.node_of_cpu(3) == 1

    def test_uniform_machine(self):
        m = uniform_machine(16)
        assert m.n_nodes == 1 and m.n_cpus == 16
        with pytest.raises(ValueError):
            uniform_machine(0)

    def test_metadata(self):
        meta = altix_300().metadata()
        assert meta["machine"] == "SGI Altix 300"
        assert meta["cpus"] == 16
        assert meta["worst_case_remote_latency_cycles"] > meta["local_latency_cycles"]

    def test_fresh_page_tables_are_independent(self):
        m = altix_300()
        pt1, pt2 = m.new_page_table(), m.new_page_table()
        pt1.allocate("u", 1024)
        assert pt2.regions() == []


@settings(max_examples=40, deadline=None)
@given(
    flops=st.floats(min_value=0, max_value=1e9),
    loads=st.floats(min_value=0, max_value=1e9),
    footprint=st.floats(min_value=0, max_value=1e9),
    reuse=st.floats(min_value=0, max_value=1),
)
def test_counter_nonnegativity_and_identity_property(flops, loads, footprint, reuse):
    sig = WorkSignature(
        flops=flops, loads=loads, footprint_bytes=footprint, reuse=reuse
    )
    v = ProcessorModel().execute(sig)
    for name, value in v.items():
        assert value >= 0, name
    assert v[C.BACK_END_BUBBLE_ALL] == pytest.approx(v.total_stalls(), rel=1e-6, abs=1e-6)
    assert v[C.CPU_CYCLES] + 1e-9 >= v[C.BACK_END_BUBBLE_ALL]
