"""A rank-set step is the per-CPU loop it replaces, bit for bit.

Random scripts of enter/charge/exit steps over ascending CPU subsets run
twice: once through the profiler's ``*_set`` methods (one lockstep step
each, or several ops in one step), once as a loop of the scalar calls.
Accumulators, clocks, interval snapshots and every trace column and
payload must be bitwise equal.  The MPI neighbour exchange is checked the
same way against ``isend``/``irecv``/``waitall`` per rank, OpenMP
teams' static loops and ``single`` constructs against the per-thread
calls they replace, and dynamic and guided loops, run from a dispatch
plan in rounds, against the per-chunk dispatch loop.  Long blocks on few
CPUs, which ``charge_set`` folds in one pass, are drawn on both sides of
the threshold.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import WorkSignature, altix_300, uniform_machine
from repro.machine.counters import _wrap
from repro.runtime import (
    EventTrace,
    LoopTask,
    MPIRuntime,
    OpenMPRuntime,
    ParallelForResult,
    RegionAccess,
    Schedule,
    SnapshotProfiler,
    task_rows,
)
from repro.runtime import trace as T
from repro.runtime.openmp import _chunk_plan

N_CPUS = 6
NAMES = ("a", "b", "c")


def _row(values):
    # magnitudes far apart, so a reassociated fold changes the low bits
    return [abs(v) for v in values]


rows_of = st.integers(0, 3).flatmap(lambda n: st.lists(
    st.lists(st.floats(0.0, 1e9, allow_nan=False), min_size=6, max_size=6)
    .map(_row), min_size=n, max_size=n))


def seeded_rows(lo, hi):
    """Lists of ``lo``–``hi`` random rows whose entries span 15 decades,
    so any reassociated fold changes the low bits."""
    def rows(n, seed):
        rng = np.random.default_rng(seed)
        return (rng.random((n, 6)) * 10.0 ** rng.integers(-6, 9, (n, 6))).tolist()
    return st.builds(rows, st.integers(lo, hi), st.integers(0, 2**32 - 1))


#: One-CPU blocks of 8–70 rows and ragged few-CPU blocks reach the
#: one-pass fold (rows >= 8 x CPUs); the shorter ones stay per step.
long_rows = st.one_of(seeded_rows(8, 70), seeded_rows(0, 24))


def charge_rows(prof, cpu, rows):
    """One scalar ``charge`` per row, in order."""
    for row in rows:
        prof.charge(cpu, _wrap(row))


@st.composite
def scripts(draw, rows=rows_of, max_cpus=None, max_steps=24, opened=False):
    """Valid scripts: exits close the innermost region, charges land on
    open regions; ``block`` steps run enter, charge and exit on one set
    (of at most ``max_cpus`` CPUs, drawing each CPU's ``rows``).  An
    ``opened`` script first enters ``a`` on every CPU and charges it, so
    later folds start from nonzero cells."""
    stacks = {cpu: ["a"] if opened else [] for cpu in range(N_CPUS)}
    steps = []
    if opened:
        every = list(range(N_CPUS))
        steps += [("enter", every, "a"),
                  ("charge", every, [draw(seeded_rows(1, 2)) for _ in every])]
    for _ in range(draw(st.integers(1, max_steps))):
        kind = draw(st.sampled_from(["enter", "exit", "charge", "cut",
                                     "block"]))
        if kind in ("enter", "block"):
            cpus = sorted(draw(st.sets(st.integers(0, N_CPUS - 1),
                                       min_size=1, max_size=max_cpus)))
            name = draw(st.sampled_from(NAMES))
            if kind == "enter":
                for cpu in cpus:
                    stacks[cpu].append(name)
                steps.append(("enter", cpus, name))
            else:
                steps.append(("block", cpus, name,
                              [draw(rows) for _ in cpus]))
        elif kind == "exit":
            tops = {}
            for cpu, stack in stacks.items():
                if stack:
                    tops.setdefault(stack[-1], []).append(cpu)
            if tops:
                name = draw(st.sampled_from(sorted(tops)))
                cpus = sorted(draw(st.sets(st.sampled_from(tops[name]),
                                           min_size=1)))
                for cpu in cpus:
                    stacks[cpu].pop()
                steps.append(("exit", cpus, name))
        elif kind == "charge":
            live = [cpu for cpu, stack in stacks.items() if stack]
            if live:
                cpus = sorted(draw(st.sets(st.sampled_from(live), min_size=1,
                                           max_size=max_cpus)))
                steps.append(("charge", cpus, [draw(rows) for _ in cpus]))
        else:
            steps.append(("cut",))
    return steps, stacks


def _array(rows):
    return np.array(rows, dtype=float).reshape(len(rows), 6)


def run_script(script, stacks, *, lockstep, callpaths, trace):
    prof = SnapshotProfiler(uniform_machine(N_CPUS), callpaths=callpaths,
                            trace=trace)
    for step in script:
        if step[0] == "cut":
            if prof._cpus:
                prof.phase("cut")
            continue
        cpus = step[1]
        if not lockstep:
            for i, cpu in enumerate(cpus):
                if step[0] in ("enter", "block"):
                    prof.enter(cpu, step[2])
                if step[0] == "charge":
                    charge_rows(prof, cpu, _array(step[2][i]))
                if step[0] == "block":
                    charge_rows(prof, cpu, _array(step[3][i]))
                if step[0] in ("exit", "block"):
                    prof.exit(cpu, step[2])
            continue
        with prof.lockstep(cpus):
            if step[0] in ("enter", "block"):
                prof.enter_set(cpus, step[2])
            if step[0] == "charge":
                prof.charge_set(cpus, [_array(r) for r in step[2]])
            if step[0] == "block":
                prof.charge_set(cpus, [_array(r) for r in step[3]])
            if step[0] in ("exit", "block"):
                prof.exit_set(cpus, step[2])
    clocks = {cpu: prof.clock(cpu) for cpu in sorted(prof._cpus)}
    for cpu, stack in stacks.items():
        for name in reversed(stack):
            prof.exit(cpu, name)
    return prof, clocks


def trial_bytes(trial):
    out = [repr([(e.name, e.group) for e in trial.events]),
           repr([str(t) for t in trial.threads]), repr(trial.metric_names()),
           trial.calls_array().tobytes(), trial.subroutines_array().tobytes()]
    for metric in trial.metric_names():
        out += [trial.exclusive_array(metric).tobytes(),
                trial.inclusive_array(metric).tobytes()]
    return out


def trace_payload(trace):
    cols = trace.columns()
    out = [cols[key].tobytes() for key in ("kind", "cpu", "ts", "name_id")]
    out.append(repr(trace.name_table()))
    for attrs in trace.attrs_column():
        if attrs and "vector" in attrs:
            attrs = dict(attrs, vector={
                k: v.hex() for k, v in attrs["vector"].as_dict().items()})
        out.append(repr(attrs))
    return out


def assert_same_runs(a, b):
    (prof_a, clocks_a), (prof_b, clocks_b) = a, b
    assert clocks_a == clocks_b
    if clocks_a:
        assert trial_bytes(prof_a.to_trial("t")) == \
            trial_bytes(prof_b.to_trial("t"))
    assert [trial_bytes(s) for s in prof_a.snapshots] == \
        [trial_bytes(s) for s in prof_b.snapshots]
    if prof_a.trace is not None:
        assert trace_payload(prof_a.trace) == trace_payload(prof_b.trace)
        assert prof_a.trace.charges_fully_recorded == \
            prof_b.trace.charges_fully_recorded


@settings(max_examples=120, deadline=None)
@given(script=scripts(), callpaths=st.booleans(),
       tracing=st.sampled_from([None, False, True]))
def test_set_steps_equal_the_scalar_loop(script, callpaths, tracing):
    steps, stacks = script

    def run(lockstep):
        trace = None if tracing is None else EventTrace(record_charges=tracing)
        return run_script(steps, stacks, lockstep=lockstep,
                          callpaths=callpaths, trace=trace)

    assert_same_runs(run(True), run(False))


@settings(max_examples=60, deadline=None)
@given(script=scripts(rows=long_rows, max_cpus=3, max_steps=12, opened=True),
       callpaths=st.booleans(), tracing=st.sampled_from([None, True]))
def test_long_blocks_fold_like_the_scalar_loop(script, callpaths, tracing):
    steps, stacks = script

    def run(lockstep):
        trace = None if tracing is None else EventTrace(record_charges=tracing)
        return run_script(steps, stacks, lockstep=lockstep,
                          callpaths=callpaths, trace=trace)

    assert_same_runs(run(True), run(False))


def exchange(n, faces, skews, *, lockstep):
    """GenIDLEST's ghost exchange on a ring of ``n`` ranks, twice."""
    machine = altix_300()
    prof = SnapshotProfiler(machine, trace=EventTrace())
    mpi = MPIRuntime(machine, prof, n, cpus=[2 * r for r in range(n)])
    ranks = list(range(n))
    cpus = [mpi.cpu_of(r) for r in ranks]
    prev = [(r - 1) % n for r in ranks]
    nxt = [(r + 1) % n for r in ranks]
    prof.enter_set(cpus, "main")
    prof.charge_idle_set(cpus, skews)
    for _ in range(2):
        if lockstep:
            posts = [("send", prev, 0), ("recv", prev, 1),
                     ("send", nxt, 1), ("recv", nxt, 0)] if n > 1 else []
            with prof.lockstep(cpus):
                prof.enter_set(cpus, "exchange")
                requests = mpi.post(ranks, posts, faces)
            with prof.lockstep(cpus):
                if posts:
                    mpi.waitall_set(ranks, [[q for q in reqs
                                             if q.kind == "recv"]
                                            for reqs in requests])
                prof.exit_set(cpus, "exchange")
        else:
            recvs = {r: [] for r in ranks}
            for r in ranks:
                prof.enter(cpus[r], "exchange")
                if prev[r] != r:
                    mpi.isend(r, prev[r], faces[r], tag=0)
                    recvs[r].append(mpi.irecv(r, prev[r], faces[r], tag=1))
                if nxt[r] != r:
                    mpi.isend(r, nxt[r], faces[r], tag=1)
                    recvs[r].append(mpi.irecv(r, nxt[r], faces[r], tag=0))
            for r in ranks:
                if recvs[r]:
                    mpi.waitall(r, recvs[r])
                prof.exit(cpus[r], "exchange")
        mpi.allreduce(8)
        prof.phase("iteration")
    prof.exit_set(cpus, "main")
    return prof, {cpu: prof.clock(cpu) for cpu in cpus}


@pytest.mark.parametrize("n", range(1, 7))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_rank_set_exchange_equals_per_rank_calls(n, data):
    faces = data.draw(st.lists(st.floats(0.0, 1e7), min_size=n, max_size=n))
    skews = data.draw(st.lists(st.floats(0.0, 1e-3), min_size=n, max_size=n))
    assert_same_runs(exchange(n, faces, skews, lockstep=True),
                     exchange(n, faces, skews, lockstep=False))


def _team_task(k):
    """Task ``k``: footprints from L1 to beyond TLB reach, overlapping page
    ranges of four regions, every fourth task without a region access."""
    work = WorkSignature(flops=1e4 * (k % 7 + 1), loads=3e3 * (k % 5 + 1),
                         stores=500.0 * (k % 3),
                         footprint_bytes=[8e3, 3e5, 2e6, 4e7][k % 4])
    if k % 4 == 3:
        return LoopTask(work)
    return LoopTask(work, RegionAccess(
        f"r{k % 4}", start_byte=(k * 9000) % 40000, length=20000 + k * 700,
        latency_multiplier=1.0 + (k % 2) * 0.5))


TEAM_TASKS = [_team_task(k) for k in range(12)]
#: The same work with no region access, so no row depends on its thread.
PLAIN_TASKS = [LoopTask(task.work) for task in TEAM_TASKS]


def reference_parallel_for(omp, seq, *, region_event, loop_event, tasks,
                           n_threads, schedule, cpus):
    """A ``parallel_for`` as a loop of per-thread profiler calls; dynamic
    and guided chunks go one by one to the thread free earliest."""
    prof, trace = omp.profiler, omp.profiler.trace
    schedule = Schedule.parse(schedule)
    for t, cpu in enumerate(cpus):
        if trace is not None:
            trace.emit(T.FORK, cpu, prof.clock(cpu), region_event,
                       {"thread": t, "n_threads": n_threads,
                        "schedule": str(schedule), "seq": seq})
        prof.enter(cpu, region_event, group="OPENMP")
        prof.charge_idle(cpu, omp.fork_join_overhead_us / 2e6)
    chunks = _chunk_plan(len(tasks), n_threads, schedule)
    compute, n_chunks = [0.0] * n_threads, [0] * n_threads

    def run_chunk(t, rows):
        t0 = prof.clock(cpus[t])
        prof.enter(cpus[t], loop_event, group="OPENMP_LOOP")
        charge_rows(prof, cpus[t], rows)
        prof.exit(cpus[t], loop_event)
        compute[t] += prof.clock(cpus[t]) - t0
        n_chunks[t] += 1

    if schedule.kind == "static":
        plan = sorted(range(len(chunks)), key=lambda ci: ci % n_threads)
        rows = task_rows(
            omp.machine, [tasks[i] for ci in plan for i in range(*chunks[ci])],
            [cpus[ci % n_threads] for ci in plan for _ in range(*chunks[ci])],
            omp.page_table)
        offset = 0
        for ci in plan:
            size = chunks[ci][1] - chunks[ci][0]
            run_chunk(ci % n_threads, rows[offset:offset + size])
            offset += size
    else:
        dispatch_s = omp.dispatch_overhead_us / 1e6
        heap = [(prof.clock(cpu), t) for t, cpu in enumerate(cpus)]
        heapq.heapify(heap)
        for start, stop in chunks:
            _, t = heapq.heappop(heap)
            prof.charge_idle(cpus[t], dispatch_s)
            run_chunk(t, task_rows(omp.machine, tasks[start:stop],
                                   [cpus[t]] * (stop - start), omp.page_table))
            compute[t] += dispatch_s
            heapq.heappush(heap, (prof.clock(cpus[t]), t))
    release = max(prof.clock(c) for c in cpus)
    if trace is not None:
        for t, cpu in enumerate(cpus):
            trace.emit(T.BARRIER, cpu, prof.clock(cpu), region_event,
                       {"thread": t, "arrive": prof.clock(cpu),
                        "release": release, "seq": seq})
    barrier = [prof.advance_clock_to(cpu, release) for cpu in cpus]
    for t, cpu in enumerate(cpus):
        prof.charge_idle(cpu, omp.fork_join_overhead_us / 2e6)
        prof.exit(cpu, region_event)
        if trace is not None:
            trace.emit(T.JOIN, cpu, prof.clock(cpu), region_event,
                       {"thread": t, "seq": seq})
    return ParallelForResult(region_event, loop_event, schedule, n_threads,
                             compute, barrier, n_chunks)


def reference_single(omp, seq, *, region_event, body_event, work_items,
                     n_threads, cpus, master_thread):
    """``single`` as a loop of per-thread profiler calls."""
    prof, trace = omp.profiler, omp.profiler.trace
    for t, cpu in enumerate(cpus):
        if trace is not None:
            trace.emit(T.FORK, cpu, prof.clock(cpu), region_event,
                       {"thread": t, "n_threads": n_threads, "seq": seq})
        prof.enter(cpu, region_event, group="OPENMP")
    master = cpus[master_thread]
    t0 = prof.clock(master)
    prof.enter(master, body_event, group="OPENMP")
    charge_rows(prof, master, task_rows(omp.machine, work_items,
                                        [master] * len(work_items),
                                        omp.page_table))
    prof.exit(master, body_event)
    elapsed = prof.clock(master) - t0
    release = max(prof.clock(c) for c in cpus)
    if trace is not None:
        for t, cpu in enumerate(cpus):
            trace.emit(T.BARRIER, cpu, prof.clock(cpu), region_event,
                       {"thread": t, "arrive": prof.clock(cpu),
                        "release": release, "seq": seq})
    for t, cpu in enumerate(cpus):
        prof.advance_clock_to(cpu, release)
        prof.exit(cpu, region_event)
        if trace is not None:
            trace.emit(T.JOIN, cpu, prof.clock(cpu), region_event,
                       {"thread": t, "seq": seq})
    return elapsed


@st.composite
def team_constructs(draw, schedules=("static",)):
    """A team (distinct CPUs in any order) and a list of constructs over
    prefixes of one task list (with or without region accesses), so
    repeated constructs can reuse rows; loops take one of ``schedules``,
    with or without a chunk."""
    cpus = draw(st.lists(st.integers(0, 15), min_size=1, max_size=6,
                         unique=True))
    constructs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["for", "single", "cut"]))
        plain = draw(st.booleans())
        if kind == "for":
            schedule = draw(st.sampled_from(schedules))
            chunk = draw(st.none() | st.integers(1, 4))
            constructs.append(("for", draw(st.integers(1, 12)),
                               schedule if chunk is None
                               else f"{schedule},{chunk}", plain))
        elif kind == "single":
            constructs.append(("single", draw(st.integers(1, 12)),
                               draw(st.integers(0, len(cpus) - 1)), plain))
        else:
            constructs.append(("cut",))
    return cpus, constructs


def result_bytes(result):
    """A construct's result with its floats as bytes."""
    if not isinstance(result, ParallelForResult):
        return np.float64(result).tobytes()
    return [result.region_event, result.loop_event, repr(result.schedule),
            result.n_threads, result.chunks,
            np.array(result.compute_seconds).tobytes(),
            np.array(result.barrier_seconds).tobytes()]


def run_team(cpus, constructs, *, reference, parent_set, callpaths, trace,
             paged=True, dispatch_us=1.0):
    machine = altix_300()
    pages = machine.new_page_table() if paged else None
    for r in range(4 if paged else 0):
        pages.allocate(f"r{r}", 60_000 + 20_000 * r)
    prof = SnapshotProfiler(machine, callpaths=callpaths, trace=trace)
    omp = OpenMPRuntime(machine, prof, pages, dispatch_overhead_us=dispatch_us)
    if parent_set:
        prof.enter_set(cpus, "main")
    else:
        for cpu in cpus:
            prof.enter(cpu, "main")
    results = []
    for construct in constructs:
        if construct[0] == "cut":
            prof.phase("cut")
            continue
        kind, n_tasks, arg, plain = construct
        tasks = (PLAIN_TASKS if plain else TEAM_TASKS)[:n_tasks]
        if kind == "for":
            call = reference_parallel_for if reference else omp.parallel_for
            kwargs = dict(region_event="region", loop_event="loop",
                          tasks=tasks, schedule=arg)
        else:
            call = reference_single if reference else omp.single
            kwargs = dict(region_event="region", body_event="body",
                          work_items=tasks, master_thread=arg)
        args = (omp, next(omp._construct_seq)) if reference else ()
        results.append(result_bytes(
            call(*args, n_threads=len(cpus), cpus=cpus, **kwargs)))
    clocks = {cpu: prof.clock(cpu) for cpu in cpus}
    prof.exit_set(cpus, "main")
    return (prof, clocks), results


@settings(max_examples=80, deadline=None)
@given(team=team_constructs(), parent_set=st.booleans(),
       callpaths=st.booleans(), tracing=st.sampled_from([None, False, True]))
def test_team_constructs_equal_the_per_thread_calls(team, parent_set,
                                                    callpaths, tracing):
    cpus, constructs = team

    def run(reference):
        trace = None if tracing is None else EventTrace(record_charges=tracing)
        return run_team(cpus, constructs, reference=reference,
                        parent_set=parent_set, callpaths=callpaths,
                        trace=trace)

    (got, results), (want, expected) = run(False), run(True)
    assert results == expected
    assert_same_runs(got, want)


@settings(max_examples=80, deadline=None)
@given(team=team_constructs(schedules=("dynamic", "guided")),
       paged=st.booleans(), dispatch_us=st.sampled_from([0.0, 2.7, 150.0]),
       parent_set=st.booleans(), callpaths=st.booleans(),
       tracing=st.sampled_from([None, False, True]))
def test_planned_dispatch_equals_the_per_chunk_loop(team, paged, dispatch_us,
                                                    parent_set, callpaths,
                                                    tracing):
    cpus, constructs = team

    def run(reference):
        trace = None if tracing is None else EventTrace(record_charges=tracing)
        return run_team(cpus, constructs, reference=reference,
                        parent_set=parent_set, callpaths=callpaths,
                        trace=trace, paged=paged, dispatch_us=dispatch_us)

    (got, results), (want, expected) = run(False), run(True)
    assert results == expected
    assert_same_runs(got, want)
