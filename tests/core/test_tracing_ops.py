"""Trace analysis operations: wait states on hand-crafted MPI schedules,
critical-path extraction, and interval-imbalance timelines."""

import pytest

from repro.core.operations import (
    CriticalPathOperation,
    PhaseImbalanceOperation,
    WaitStateOperation,
    critical_path,
    detect_wait_states,
    interval_imbalance,
    total_wait_by_rank,
)
from repro.machine import CounterVector, WorkSignature, uniform_machine
from repro.machine import counters as C
from repro.runtime import (
    EventTrace,
    LoopTask,
    MPIRuntime,
    OpenMPRuntime,
    Profiler,
    Schedule,
    SnapshotProfiler,
)
from repro.runtime import trace as T


def _work(prof, cpu, seconds, event="work"):
    prof.enter(cpu, event)
    prof.charge(cpu, CounterVector({C.TIME: seconds * 1e6}))
    prof.exit(cpu, event)


def _mpi_pair():
    machine = uniform_machine(2)
    trace = EventTrace()
    prof = Profiler(machine, trace=trace)
    mpi = MPIRuntime(machine, prof, 2)
    return machine, trace, prof, mpi


# -- late sender -----------------------------------------------------------

def test_late_sender_diagnosed_with_rank_and_wait():
    _, trace, prof, mpi = _mpi_pair()
    # rank 0 computes 1 s before sending; rank 1 is ready immediately
    req = mpi.irecv(1, 0, 1024.0, tag=7)
    _work(prof, 0, 1.0)
    mpi.isend(0, 1, 1024.0, tag=7)
    mpi.waitall(1, [req])

    states = detect_wait_states(trace)
    late = [s for s in states if s.kind == "late-sender"]
    assert len(late) == 1
    ws = late[0]
    assert ws.rank == 0  # the offender: the sender that posted late
    assert ws.victim == 1
    assert ws.event == "MPI_Waitall()"
    assert ws.construct == "mpi"
    # the receiver entered its wait almost immediately; it blocked until
    # the sender's 1 s of work plus the transfer completed
    assert 0.95 < ws.wait_seconds < 1.2
    # exact accounting: wait == message ready time - wait start
    (wait_ev,) = [e for e in trace.events if e.kind == T.WAIT]
    (req_rec,) = wait_ev.get("requests")
    assert ws.wait_seconds == pytest.approx(
        req_rec["ready_at"] - wait_ev.get("start"))
    assert total_wait_by_rank(states)[0] == pytest.approx(ws.wait_seconds)


# -- late receiver ---------------------------------------------------------

def test_late_receiver_diagnosed_with_rank_and_wait():
    _, trace, prof, mpi = _mpi_pair()
    # rank 0 sends immediately; rank 1 computes 1 s before receiving
    mpi.isend(0, 1, 1024.0, tag=3)
    _work(prof, 1, 1.0)
    req = mpi.irecv(1, 0, 1024.0, tag=3)
    mpi.waitall(1, [req])

    states = detect_wait_states(trace)
    late = [s for s in states if s.kind == "late-receiver"]
    assert len(late) == 1
    ws = late[0]
    assert ws.rank == 1  # the offender: the receiver showed up late
    assert ws.victim == 0
    assert ws.event == "MPI_Waitall()"
    assert 0.95 < ws.wait_seconds < 1.2
    assert not [s for s in states if s.kind == "late-sender"]


# -- barrier stragglers ----------------------------------------------------

def test_mpi_barrier_straggler_diagnosed():
    machine = uniform_machine(3)
    trace = EventTrace()
    prof = Profiler(machine, trace=trace)
    mpi = MPIRuntime(machine, prof, 3)
    _work(prof, 2, 2.0)  # rank 2 arrives 2 s late
    mpi.barrier()

    states = detect_wait_states(trace)
    stragglers = [s for s in states if s.kind == "barrier-straggler"]
    assert len(stragglers) == 1
    ws = stragglers[0]
    assert ws.rank == 2
    assert ws.victim == 0  # earliest arriver paid the most wait
    assert ws.event == "MPI_Barrier()"
    assert ws.construct == "mpi"
    assert ws.wait_seconds == pytest.approx(2.0)


def test_openmp_barrier_straggler_diagnosed():
    machine = uniform_machine(2)
    trace = EventTrace()
    prof = Profiler(machine, trace=trace)
    omp = OpenMPRuntime(machine, prof)
    for cpu in (0, 1):
        prof.enter(cpu, "main")
    # static schedule: thread 0 gets the heavy first task
    tasks = [
        LoopTask(WorkSignature(flops=5e8, footprint_bytes=1024)),
        LoopTask(WorkSignature(flops=1e6, footprint_bytes=1024)),
    ]
    omp.parallel_for(
        region_event="region", loop_event="loop", tasks=tasks,
        n_threads=2, schedule=Schedule("static"),
    )
    for cpu in (0, 1):
        prof.exit(cpu, "main")

    states = detect_wait_states(trace)
    stragglers = [s for s in states if s.kind == "barrier-straggler"]
    assert len(stragglers) == 1
    ws = stragglers[0]
    assert ws.construct == "openmp"
    assert ws.rank == 0  # thread index, not cpu id semantics
    assert ws.victim == 1
    assert ws.wait_seconds > 0.0


def test_consecutive_collectives_not_merged():
    """Two allreduces form two groups (seq disambiguates same-name events)."""
    machine = uniform_machine(2)
    trace = EventTrace()
    prof = Profiler(machine, trace=trace)
    mpi = MPIRuntime(machine, prof, 2)
    _work(prof, 1, 0.5)
    mpi.allreduce(8)
    _work(prof, 0, 0.5)
    mpi.allreduce(8)
    states = [s for s in detect_wait_states(trace)
              if s.kind == "barrier-straggler"]
    assert len(states) == 2
    assert {s.rank for s in states} == {0, 1}


# -- critical path ---------------------------------------------------------

def test_critical_path_tiles_makespan_and_crosses_ranks():
    _, trace, prof, mpi = _mpi_pair()
    req = mpi.irecv(1, 0, 64 * 1024.0, tag=0)
    _work(prof, 0, 1.0)
    mpi.isend(0, 1, 64 * 1024.0, tag=0)
    mpi.waitall(1, [req])
    _work(prof, 1, 0.5)

    result = critical_path(trace)
    assert result.makespan == pytest.approx(max(trace.final_clocks().values()))
    # the path is contiguous in time from 0 to the makespan
    assert result.segments[0].t_start == pytest.approx(0.0)
    assert result.segments[-1].t_end == pytest.approx(result.makespan)
    for a, b in zip(result.segments, result.segments[1:]):
        assert a.t_end == pytest.approx(b.t_start)
    total = sum(s.seconds for s in result.segments)
    assert total == pytest.approx(result.makespan)
    assert result.compute_seconds + result.wait_seconds == pytest.approx(
        result.makespan)
    # the sender's 1 s of work is upstream of the receiver's tail: the
    # path must visit both cpus
    assert sorted({s.cpu for s in result.segments}) == [0, 1]
    work = sum(s.seconds for s in result.segments
               if not s.idle and s.event == "work")
    assert work == pytest.approx(1.5, rel=0.05)


# -- interval imbalance ----------------------------------------------------

def _snapshot_run():
    prof = SnapshotProfiler(uniform_machine(2))
    for cpu in (0, 1):
        prof.enter(cpu, "main")
    # kernel imbalance grows: even split, then 3:1
    for weights in ([500.0, 500.0], [750.0, 250.0], [900.0, 100.0]):
        for cpu, w in enumerate(weights):
            prof.enter(cpu, "kernel")
            prof.charge(cpu, CounterVector({C.TIME: w}))
            prof.exit(cpu, "kernel")
        prof.phase(f"iteration_{len(prof.snapshots)}")
    return prof


def test_interval_imbalance_growing_trend():
    prof = _snapshot_run()
    timelines = interval_imbalance(prof.snapshots, min_share=0.05)
    (kernel,) = [tl for tl in timelines if tl.event == "kernel"]
    assert len(kernel.ratios) == 3
    assert kernel.first_ratio == pytest.approx(0.0)
    assert kernel.ratios[1] < kernel.ratios[2]
    assert kernel.trend == "growing"
    assert kernel.worst_interval == 2
    assert kernel.labels[kernel.worst_interval] == "iteration_2"
    assert kernel.slope > 0


def test_interval_imbalance_label_alignment_for_late_events():
    """An event absent from early intervals keeps label alignment."""
    prof = SnapshotProfiler(uniform_machine(2))
    for cpu in (0, 1):
        prof.enter(cpu, "main")
    _work(prof, 0, 0.001, event="early")
    _work(prof, 1, 0.001, event="early")
    prof.phase("first")
    _work(prof, 0, 0.002, event="late")  # only cpu 0: maximally unbalanced
    prof.phase("second")
    timelines = interval_imbalance(prof.snapshots)
    (late,) = [tl for tl in timelines if tl.event == "late"]
    assert len(late.ratios) == len(late.labels) == 2
    assert late.ratios[0] == 0.0
    assert late.labels[late.worst_interval] == "second"


def test_trace_operations_wrappers():
    _, trace, prof, mpi = _mpi_pair()
    req = mpi.irecv(1, 0, 1024.0, tag=0)
    _work(prof, 0, 0.2)
    mpi.isend(0, 1, 1024.0, tag=0)
    mpi.waitall(1, [req])

    states = WaitStateOperation(trace).processData()
    assert any(s.kind == "late-sender" for s in states)
    (cp,) = CriticalPathOperation(trace).processData()
    assert cp.makespan > 0
    snap_prof = _snapshot_run()
    timelines = PhaseImbalanceOperation(snap_prof.snapshots).processData()
    assert any(tl.event == "kernel" for tl in timelines)
