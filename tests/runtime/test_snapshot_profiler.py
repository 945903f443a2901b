"""SnapshotProfiler: interval snapshots cut at phase boundaries."""

import numpy as np
import pytest

from repro.machine import CounterVector, uniform_machine
from repro.machine import counters as C
from repro.runtime import EventTrace, Profiler, SnapshotProfiler
from repro.runtime.tau import MeasurementError
from repro.runtime.trace import PHASE


def _charge(prof, cpu, us):
    prof.charge(cpu, CounterVector({C.TIME: us, C.FP_OPS: us * 3.0}))


def _drive(prof, weights):
    """One 'iteration': per-cpu work inside main/kernel regions."""
    for cpu, w in enumerate(weights):
        prof.enter(cpu, "kernel")
        _charge(prof, cpu, w)
        prof.exit(cpu, "kernel")


def test_snapshots_cut_per_phase_and_sum_to_totals():
    machine = uniform_machine(2)
    prof = SnapshotProfiler(machine)
    for cpu in (0, 1):
        prof.enter(cpu, "main")
    _drive(prof, [1000.0, 2000.0])
    prof.phase("iter_0")
    _drive(prof, [3000.0, 500.0])
    prof.phase("iter_1")
    _drive(prof, [100.0, 100.0])
    for cpu in (0, 1):
        prof.exit(cpu, "main")
    prof.phase("iter_2")

    assert [s.name for s in prof.snapshots] == [
        "interval_0000", "interval_0001", "interval_0002"
    ]
    labels = [s.metadata["interval"]["label"] for s in prof.snapshots]
    assert labels == ["iter_0", "iter_1", "iter_2"]
    # interval windows chain: t_start of n+1 == t_end of n
    windows = [s.metadata["interval"] for s in prof.snapshots]
    assert windows[0]["t_start"] == 0.0
    for a, b in zip(windows, windows[1:]):
        assert b["t_start"] == a["t_end"]

    # per-interval exclusive deltas sum to the final cumulative profile
    total = prof.to_trial("total")
    e = total.event_index("kernel")
    summed = np.zeros(2)
    for snap in prof.snapshots:
        if snap.has_event("kernel"):
            summed += snap.exclusive_array(C.TIME)[snap.event_index("kernel")]
    assert np.allclose(summed, total.exclusive_array(C.TIME)[e])


def test_snapshot_deltas_are_nonnegative_and_validated():
    prof = SnapshotProfiler(uniform_machine(3))
    rng = np.random.default_rng(7)
    for cpu in range(3):
        prof.enter(cpu, "main")
    for i in range(5):
        _drive(prof, rng.uniform(10.0, 5000.0, size=3))
        prof.phase(f"iteration_{i}")
    for snap in prof.snapshots:
        for metric in snap.metric_names():
            assert (snap.exclusive_array(metric) >= 0.0).all()
            assert (snap.inclusive_array(metric) >= 0.0).all()
        snap.validate()


def test_snapshot_includes_open_region_partial_inclusive():
    prof = SnapshotProfiler(uniform_machine(1))
    prof.enter(0, "main")
    _charge(prof, 0, 4000.0)
    prof.phase("mid")  # main is still open
    snap = prof.snapshots[0]
    e = snap.event_index("main")
    assert snap.inclusive_array(C.TIME)[e][0] == pytest.approx(4000.0)


def test_snapshot_before_activity_raises():
    prof = SnapshotProfiler(uniform_machine(1))
    with pytest.raises(MeasurementError):
        prof.snapshot("empty")


def test_phase_marks_recorded_in_trace():
    trace = EventTrace()
    prof = SnapshotProfiler(uniform_machine(1), trace=trace)
    prof.enter(0, "main")
    _charge(prof, 0, 1000.0)
    prof.phase("p0")
    prof.exit(0, "main")
    prof.phase("p1")
    marks = [e for e in trace.events if e.kind == PHASE]
    assert [m.name for m in marks] == ["p0", "p1"]
    assert len(prof.snapshots) == 2


def test_base_profiler_phase_is_trace_mark_only():
    trace = EventTrace()
    prof = Profiler(uniform_machine(1), trace=trace)
    prof.enter(0, "main")
    _charge(prof, 0, 100.0)
    prof.phase("p0")
    prof.exit(0, "main")
    assert [e.name for e in trace.events if e.kind == PHASE] == ["p0"]
    assert not hasattr(prof, "snapshots")


def test_snapshot_deltas_span_growing_extents():
    """A later interval may add events, CPUs and counter slots the
    previous capture never had; its delta treats them as zero before."""
    name = "TEST_ONLY_SNAPSHOT_COUNTER"
    trace = EventTrace()
    prof = SnapshotProfiler(uniform_machine(3), trace=trace)
    prof.enter(0, "main")
    _charge(prof, 0, 10.0)
    first = prof.snapshot("a")
    prof.enter(2, "late")
    prof.charge(2, CounterVector({C.TIME: 5.0, name: 7.0}))
    prof.exit(2, "late")
    _charge(prof, 0, 1.0)
    prof.exit(0, "main")
    second = prof.snapshot("b")
    assert first.metric_names() == [C.TIME, C.FP_OPS]
    assert second.metric_names() == [C.TIME, C.FP_OPS, name]
    assert second.get_exclusive("main", C.TIME, 0) == 1.0
    assert second.get_inclusive("main", C.TIME, 0) == 1.0
    assert [t.thread for t in second.threads] == [0, 2]
    assert second.get_exclusive("late", name, 1) == 7.0
    assert second.get_calls("late", 1) == 1 and second.get_calls("main", 0) == 0

    from repro.core.operations.tracing import replay_trace

    whole = prof.to_trial("whole")
    replayed = replay_trace(trace, prof.machine).to_trial("replay")
    for metric in whole.metric_names():
        assert np.array_equal(whole.exclusive_array(metric),
                              replayed.exclusive_array(metric))
        assert np.array_equal(whole.inclusive_array(metric),
                              replayed.inclusive_array(metric))
