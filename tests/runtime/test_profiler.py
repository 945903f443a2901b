"""Tests for the TAU-like profiler."""

import uuid

import numpy as np
import pytest

from repro.machine import CounterVector, uniform_machine
from repro.machine import counters as C
from repro.runtime import EventTrace, MeasurementError, Profiler


def vec(time_us=10.0, **kw):
    return CounterVector({C.TIME: time_us, **kw})


class TestRegionAccounting:
    def test_exclusive_vs_inclusive(self):
        p = Profiler(uniform_machine(2))
        p.enter(0, "main")
        p.charge(0, vec(5.0, CPU_CYCLES=100))
        p.enter(0, "loop")
        p.charge(0, vec(20.0, CPU_CYCLES=400))
        p.exit(0, "loop")
        p.charge(0, vec(1.0, CPU_CYCLES=10))
        p.exit(0, "main")
        t = p.to_trial("t")
        assert t.get_exclusive("main", C.TIME, 0) == pytest.approx(6.0)
        assert t.get_inclusive("main", C.TIME, 0) == pytest.approx(26.0)
        assert t.get_exclusive("loop", C.TIME, 0) == pytest.approx(20.0)
        assert t.get_inclusive("loop", C.TIME, 0) == pytest.approx(20.0)
        assert t.get_inclusive("main", "CPU_CYCLES", 0) == pytest.approx(510)

    def test_calls_and_subroutines(self):
        p = Profiler(uniform_machine(1))
        p.enter(0, "main")
        for _ in range(3):
            p.enter(0, "loop")
            p.charge(0, vec())
            p.exit(0, "loop")
        p.exit(0, "main")
        t = p.to_trial("t")
        assert t.get_calls("loop", 0) == 3
        assert t.get_calls("main", 0) == 1
        assert t.subroutines_array()[t.event_index("main"), 0] == 3

    def test_callgraph_edges_in_metadata(self):
        p = Profiler(uniform_machine(1))
        p.enter(0, "main")
        p.enter(0, "outer")
        p.enter(0, "inner")
        p.charge(0, vec())
        p.exit(0, "inner")
        p.exit(0, "outer")
        p.exit(0, "main")
        t = p.to_trial("t")
        assert ["main", "outer"] in t.metadata["callgraph"]
        assert ["outer", "inner"] in t.metadata["callgraph"]

    def test_unbalanced_exit_detected(self):
        p = Profiler(uniform_machine(1))
        p.enter(0, "a")
        p.enter(0, "b")
        with pytest.raises(MeasurementError, match="unbalanced"):
            p.exit(0, "a")

    def test_exit_on_empty_stack(self):
        p = Profiler(uniform_machine(1))
        with pytest.raises(MeasurementError, match="empty stack"):
            p.exit(0, "a")

    def test_charge_outside_region(self):
        p = Profiler(uniform_machine(1))
        with pytest.raises(MeasurementError, match="outside any region"):
            p.charge(0, vec())

    def test_open_region_blocks_trial(self):
        p = Profiler(uniform_machine(1))
        p.enter(0, "main")
        p.charge(0, vec())
        with pytest.raises(MeasurementError, match="open regions"):
            p.to_trial("t")

    def test_empty_profiler_blocks_trial(self):
        with pytest.raises(MeasurementError, match="no activity"):
            Profiler(uniform_machine(1)).to_trial("t")

    def test_invalid_cpu(self):
        p = Profiler(uniform_machine(2))
        with pytest.raises(MeasurementError, match="out of range"):
            p.enter(5, "x")


class TestVirtualClock:
    def test_charge_advances_clock(self):
        p = Profiler(uniform_machine(1))
        p.enter(0, "main")
        p.charge(0, vec(1e6))  # 1 second
        assert p.clock(0) == pytest.approx(1.0)
        p.exit(0, "main")

    def test_advance_clock_to_charges_idle(self):
        m = uniform_machine(2)
        p = Profiler(m)
        p.enter(0, "main")
        p.enter(1, "main")
        p.charge(0, vec(2e6))
        waited = p.advance_clock_to(1, p.clock(0))
        assert waited == pytest.approx(2.0)
        assert p.clock(1) == pytest.approx(2.0)
        # already-ahead cpu is a no-op
        assert p.advance_clock_to(0, 1.0) == 0.0
        p.exit(0, "main")
        p.exit(1, "main")
        t = p.to_trial("t")
        # the wait shows as spin cycles on cpu 1 (partial stall, no FP)
        proc = m.processor
        assert t.get_exclusive("main", C.BACK_END_BUBBLE_ALL, 1) == pytest.approx(
            2.0 * proc.clock_hz * proc.SPIN_STALL_FRACTION
        )
        assert t.get_exclusive("main", C.CPU_CYCLES, 1) == pytest.approx(
            2.0 * proc.clock_hz
        )
        assert not t.has_metric(C.FP_OPS)  # no useful work charged anywhere

    def test_negative_idle_rejected(self):
        p = Profiler(uniform_machine(1))
        p.enter(0, "m")
        with pytest.raises(MeasurementError):
            p.charge_idle(0, -1.0)


class TestTrialShape:
    def test_thread_ids_carry_node(self):
        m = uniform_machine(4)
        p = Profiler(m)
        for cpu in range(4):
            p.enter(cpu, "main")
            p.charge(cpu, vec())
            p.exit(cpu, "main")
        t = p.to_trial("t")
        assert t.thread_count == 4
        assert all(th.node == 0 for th in t.threads)

    def test_numa_thread_ids(self):
        from repro.machine import altix_300

        m = altix_300()
        p = Profiler(m)
        for cpu in (0, 3, 15):
            p.enter(cpu, "main")
            p.charge(cpu, vec())
            p.exit(cpu, "main")
        t = p.to_trial("t")
        assert [th.node for th in t.threads] == [0, 1, 7]

    def test_time_metric_first(self):
        p = Profiler(uniform_machine(1))
        p.enter(0, "m")
        p.charge(0, vec(1.0, CPU_CYCLES=5, FP_OPS=2))
        p.exit(0, "m")
        t = p.to_trial("t")
        assert t.metric_names()[0] == C.TIME

    def test_machine_metadata_merged(self):
        p = Profiler(uniform_machine(2, name="testbox"))
        p.enter(0, "m")
        p.charge(0, vec())
        p.exit(0, "m")
        t = p.to_trial("t", {"custom": 1})
        assert t.metadata["machine"] == "testbox"
        assert t.metadata["custom"] == 1

    def test_groups_preserved(self):
        p = Profiler(uniform_machine(1))
        p.enter(0, "main", group="TAU_DEFAULT")
        p.enter(0, "MPI_Isend()", group="MPI")
        p.charge(0, vec())
        p.exit(0, "MPI_Isend()")
        p.exit(0, "main")
        t = p.to_trial("t")
        groups = {e.name: e.group for e in t.events}
        assert groups["MPI_Isend()"] == "MPI"


class TestDenseAccumulators:
    """The dense accumulators grow past their initial extents (events, CPU
    columns, nesting depth, counter slots) without losing a value."""

    def test_deep_nesting_many_events_and_cpus(self):
        depth, n_cpus = 10, 12
        p = Profiler(uniform_machine(n_cpus))
        for cpu in reversed(range(n_cpus)):
            for k in range(depth):
                p.enter(cpu, f"e{k}")
                p.charge(cpu, vec(1.0 + k, CPU_CYCLES=cpu + 1.0))
            for k in reversed(range(depth)):
                p.exit(cpu, f"e{k}")
            for k in range(30):
                p.enter(cpu, f"flat{k}")
                p.exit(cpu, f"flat{k}")
        t = p.to_trial("t")
        assert t.event_count == depth + 30
        assert [th.thread for th in t.threads] == list(range(n_cpus))
        for cpu in range(n_cpus):
            for k in range(depth):
                assert t.get_exclusive(f"e{k}", C.TIME, cpu) == 1.0 + k
                assert t.get_inclusive(f"e{k}", C.TIME, cpu) == sum(
                    1.0 + j for j in range(k, depth))
                assert t.get_inclusive(f"e{k}", C.CPU_CYCLES, cpu) == (
                    (cpu + 1.0) * (depth - k))
            assert t.get_calls("flat29", cpu) == 1

    def test_counter_registered_mid_run(self):
        name = f"TEST_ONLY_MIDRUN_{uuid.uuid4().hex}"  # new to the registry
        narrow = vec(1.0)
        p = Profiler(uniform_machine(2))
        p.enter(0, "main")
        p.enter(0, "loop")
        p.charge(0, vec(2.0))
        wide = CounterVector({C.TIME: 1.0, name: 4.0})
        assert len(narrow.as_array()) < len(wide.as_array())
        p.charge(0, wide)
        p.exit(0, "loop")
        p.charge(0, narrow)  # built before the accumulators widened
        p.exit(0, "main")
        t = p.to_trial("t")
        assert t.metric_names() == [C.TIME, name]
        assert t.get_exclusive("loop", name, 0) == 4.0
        assert t.get_inclusive("main", name, 0) == 4.0
        assert t.get_inclusive("main", C.TIME, 0) == 4.0


class TestChargeRows:
    """A one-CPU ``charge_set`` block is the fold of one ``charge`` per
    row, in order (nine rows: the one-pass fold)."""

    @staticmethod
    def rows():
        rng = np.random.default_rng(3)
        # magnitudes far apart, so any reassociation changes the low bits
        return [vec(float(t), CPU_CYCLES=float(c)) for t, c in zip(
            rng.random(9) * 10.0 ** rng.integers(-6, 6, 9),
            rng.random(9) * 1e9)]

    @staticmethod
    def run(charge, callpaths, trace=None):
        p = Profiler(uniform_machine(2), callpaths=callpaths, trace=trace)
        p.enter(1, "main")
        p.charge(1, vec(0.1))
        p.enter(1, "loop")
        p.charge(1, vec(0.3))
        charge(p)
        p.exit(1, "loop")
        p.exit(1, "main")
        return p.to_trial("t"), p.clock(1)

    @pytest.mark.parametrize("callpaths", [False, True])
    def test_rows_fold_like_single_charges(self, callpaths):
        vectors = self.rows()
        batched_trace, single_trace = EventTrace(), EventTrace()
        batched, batched_clock = self.run(
            lambda p: p.charge_set(
                [1], [np.stack([v.as_array() for v in vectors])]),
            callpaths, batched_trace)
        single, single_clock = self.run(
            lambda p: [p.charge(1, v) for v in vectors],
            callpaths, single_trace)
        assert batched_clock == single_clock
        assert batched.metric_names() == single.metric_names()
        for metric in single.metric_names():
            for get in ("exclusive_array", "inclusive_array"):
                assert getattr(batched, get)(metric).tobytes() == \
                    getattr(single, get)(metric).tobytes()
        assert batched_trace.columns()["ts"].tobytes() == \
            single_trace.columns()["ts"].tobytes()
        charged = [a for a in batched_trace.attrs_column() if a and "vector" in a]
        assert [a["vector"].as_dict() for a in charged[2:]] == \
            [v.as_dict() for v in vectors]

    def test_rows_outside_region_rejected(self):
        p = Profiler(uniform_machine(1))
        with pytest.raises(MeasurementError, match="outside any region"):
            p.charge_set([0], [np.zeros((2, len(vec().as_array())))])

    def test_narrow_rows_are_widened(self):
        p = Profiler(uniform_machine(1))
        p.enter(0, "main")
        p.charge(0, CounterVector({C.TIME: 1.0, f"TEST_ONLY_{uuid.uuid4().hex}": 2.0}))
        p.charge_set([0], [np.stack([vec(3.0).as_array()[:1]] * 2)])
        p.exit(0, "main")
        assert p.to_trial("t").get_exclusive("main", C.TIME, 0) == 7.0
