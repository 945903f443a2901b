"""Tests for the OpenMP schedule simulator."""

import numpy as np
import pytest

from repro.machine import PlacementError, WorkSignature, altix_300, uniform_machine
from repro.machine import counters as C
from repro.runtime import (
    EventTrace,
    LoopTask,
    OpenMPError,
    OpenMPRuntime,
    Profiler,
    RegionAccess,
    Schedule,
)
from repro.runtime.openmp import _chunk_plan


def uniform_tasks(n, flops=1e6):
    sig = WorkSignature(flops=flops, loads=flops / 4, footprint_bytes=32 * 1024)
    return [LoopTask(sig) for _ in range(n)]


def skewed_tasks(n, base=1e5, slope=2e5):
    """Linearly increasing task cost: classic triangular imbalance."""
    return [
        LoopTask(WorkSignature(flops=base + slope * i, loads=1e4,
                               footprint_bytes=16 * 1024))
        for i in range(n)
    ]


def makespan(result):
    """The loop's wall time: the slowest thread's compute plus barrier wait."""
    return max(c + b for c, b in zip(result.compute_seconds,
                                     result.barrier_seconds))


def run_loop(tasks, n_threads, schedule, machine=None):
    m = machine or uniform_machine(n_threads)
    p = Profiler(m)
    omp = OpenMPRuntime(m, p)
    r = omp.parallel_for(
        region_event="parallel_region",
        loop_event="work_loop",
        tasks=tasks,
        n_threads=n_threads,
        schedule=schedule,
    )
    return r, p


class TestSchedule:
    def test_parse(self):
        assert Schedule.parse("static") == Schedule("static")
        assert Schedule.parse("dynamic,4") == Schedule("dynamic", 4)
        assert str(Schedule("dynamic", 1)) == "dynamic,1"

    @pytest.mark.parametrize("bad", ["banana", "dynamic,x", "a,b,c", "dynamic,0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(OpenMPError):
            Schedule.parse(bad)

    @pytest.mark.parametrize("chunk", [2.5, 2.0, True, False, "2"])
    def test_chunk_must_be_an_int(self, chunk):
        with pytest.raises(OpenMPError, match="must be an int"):
            Schedule("static", chunk)


class TestChunkPlan:
    def test_static_even_blocks(self):
        plan = _chunk_plan(10, 4, Schedule("static"))
        assert plan == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert sum(b - a for a, b in plan) == 10

    def test_static_chunked(self):
        plan = _chunk_plan(7, 2, Schedule("static", 2))
        assert plan == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_dynamic_chunks(self):
        plan = _chunk_plan(5, 8, Schedule("dynamic", 1))
        assert len(plan) == 5

    def test_guided_shrinks(self):
        plan = _chunk_plan(100, 4, Schedule("guided", 1))
        sizes = [b - a for a, b in plan]
        assert sizes[0] > sizes[-1]
        assert sizes[0] == 100 // 8
        assert sum(sizes) == 100

    def test_plans_cover_exactly(self):
        for sched in [Schedule("static"), Schedule("static", 3),
                      Schedule("dynamic", 2), Schedule("guided", 2)]:
            plan = _chunk_plan(23, 5, sched)
            covered = []
            for a, b in plan:
                covered.extend(range(a, b))
            assert covered == list(range(23)), str(sched)


class TestParallelFor:
    def test_uniform_work_balances_under_static(self):
        r, _ = run_loop(uniform_tasks(64), 8, "static")
        assert r.imbalance_ratio < 0.01
        assert max(r.barrier_seconds) < 1e-6

    def test_skewed_work_imbalanced_under_static(self):
        """Triangular costs + static blocks → last thread dominates."""
        r, _ = run_loop(skewed_tasks(64), 8, "static")
        assert r.imbalance_ratio > 0.25  # the paper's rule threshold
        # first (cheap) thread waits longest at the barrier
        assert r.barrier_seconds[0] > r.barrier_seconds[-1]

    def test_dynamic_chunk1_fixes_skewed_imbalance(self):
        r_static, _ = run_loop(skewed_tasks(64), 8, "static")
        r_dyn, _ = run_loop(skewed_tasks(64), 8, "dynamic,1")
        assert r_dyn.imbalance_ratio < r_static.imbalance_ratio / 2
        assert makespan(r_dyn) < makespan(r_static)

    def test_large_dynamic_chunks_degenerate_toward_static(self):
        """The paper: 'larger chunk sizes tend to change the scheduling
        behavior to be more like the static even behavior'."""
        tasks = skewed_tasks(64)
        r1, _ = run_loop(tasks, 8, "dynamic,1")
        r8, _ = run_loop(tasks, 8, "dynamic,8")  # chunk = n/threads
        r_static, _ = run_loop(tasks, 8, "static")
        assert r1.imbalance_ratio < r8.imbalance_ratio
        assert r8.imbalance_ratio == pytest.approx(r_static.imbalance_ratio, rel=0.3)

    def test_barrier_negative_correlation(self):
        """Inner compute vs outer wait across threads: strong negative
        correlation (the imbalance rule's fourth condition)."""
        r, _ = run_loop(skewed_tasks(64), 8, "static")
        rho = np.corrcoef(r.compute_seconds, r.barrier_seconds)[0, 1]
        assert rho < -0.9

    def test_profile_structure(self):
        _, p = run_loop(uniform_tasks(8), 4, "static")
        t = p.to_trial("t")
        assert t.has_event("parallel_region") and t.has_event("work_loop")
        assert ["parallel_region", "work_loop"] in t.metadata["callgraph"]
        # loop exclusive time ≈ loop inclusive time (leaf event)
        e = t.event_index("work_loop")
        np.testing.assert_allclose(
            t.exclusive_array(C.TIME)[e], t.inclusive_array(C.TIME)[e]
        )

    def test_dispatch_overhead_charged_for_dynamic(self):
        tasks = uniform_tasks(128, flops=1e4)
        m = uniform_machine(4)
        p1, p2 = Profiler(m), Profiler(m)
        cheap = OpenMPRuntime(m, p1, dispatch_overhead_us=0.0)
        costly = OpenMPRuntime(m, p2, dispatch_overhead_us=50.0)
        r_cheap = cheap.parallel_for(
            region_event="r", loop_event="l", tasks=tasks,
            n_threads=4, schedule="dynamic,1")
        r_costly = costly.parallel_for(
            region_event="r", loop_event="l", tasks=tasks,
            n_threads=4, schedule="dynamic,1")
        assert makespan(r_costly) > makespan(r_cheap)

    def test_single_thread_loop(self):
        r, _ = run_loop(uniform_tasks(5), 1, "static")
        assert r.chunks == [5] or r.chunks == [1]  # one block
        assert r.barrier_seconds == [0.0]

    def test_more_threads_than_tasks(self):
        r, _ = run_loop(uniform_tasks(3), 8, "static")
        assert sum(r.chunks) == 3
        assert sum(1 for c in r.chunks if c == 0) == 5

    def test_validation_errors(self):
        m = uniform_machine(2)
        omp = OpenMPRuntime(m, Profiler(m))
        with pytest.raises(OpenMPError, match="no tasks"):
            omp.parallel_for(region_event="r", loop_event="l", tasks=[],
                             n_threads=2)
        with pytest.raises(OpenMPError, match="at least one thread"):
            omp.parallel_for(region_event="r", loop_event="l",
                             tasks=uniform_tasks(1), n_threads=0)
        with pytest.raises(OpenMPError, match="duplicates"):
            omp.parallel_for(region_event="r", loop_event="l",
                             tasks=uniform_tasks(4), n_threads=2, cpus=[0, 0])
        with pytest.raises(OpenMPError, match="out of range"):
            omp.parallel_for(region_event="r", loop_event="l",
                             tasks=uniform_tasks(4), n_threads=2, cpus=[0, 9])
        with pytest.raises(OpenMPError):
            OpenMPRuntime(m, Profiler(m), dispatch_overhead_us=-1)


class TestSingle:
    def test_master_does_all_work_others_wait(self):
        m = uniform_machine(4)
        p = Profiler(m)
        omp = OpenMPRuntime(m, p)
        elapsed = omp.single(
            region_event="exchange_var",
            body_event="mpi_send_recv_ko",
            work_items=uniform_tasks(16),
            n_threads=4,
        )
        assert elapsed > 0
        t = p.to_trial("t")
        body = t.event_index("mpi_send_recv_ko")
        time_row = t.exclusive_array(C.TIME)[body]
        assert time_row[0] > 0
        assert (time_row[1:] == 0).all()
        # non-master threads idle inside the region for ~the master's time
        region = t.event_index("exchange_var")
        waits = t.exclusive_array(C.TIME)[region]
        assert waits[1] == pytest.approx(elapsed * 1e6, rel=0.05)

    def test_single_validation(self):
        m = uniform_machine(2)
        omp = OpenMPRuntime(m, Profiler(m))
        with pytest.raises(OpenMPError):
            omp.single(region_event="r", body_event="b",
                       work_items=uniform_tasks(1), n_threads=2,
                       master_thread=5)


def region_tasks(n, region="r0"):
    """``n`` tasks, each reading its own 16 KB slice of ``region``."""
    sig = WorkSignature(flops=2e5, loads=5e4, footprint_bytes=4e6)
    return [LoopTask(sig, RegionAccess(region, start_byte=16384 * k,
                                       length=16384)) for k in range(n)]


def team(*, trace=None):
    """A page table with two 256 KB regions and a profiler in which a
    4-thread team (CPUs 6, 1, 4, 3: nodes 3, 0, 2, 1) entered ``main``
    at staggered clocks."""
    machine = altix_300()
    pages = machine.new_page_table()
    for name in ("r0", "r1"):
        pages.allocate(name, 16 * 16384)
    prof = Profiler(machine, trace=trace)
    cpus = [6, 1, 4, 3]
    prof.enter_set(cpus, "main")
    prof.charge_idle_set(cpus, [1e-6 * (k + 1) for k in range(4)])
    return machine, pages, prof, cpus


class TestFailedConstructs:
    """A construct that raises has not forked: no region is left open,
    no clock moved and nothing was traced."""

    @pytest.mark.parametrize("bad", ["unknown-region", "outside-range"])
    @pytest.mark.parametrize("construct", [
        "static", "static,3", "dynamic,2", "single", "bad-schedule",
        "no-tasks"])
    def test_stacks_and_clocks_are_unchanged(self, construct, bad):
        trace = EventTrace()
        machine, pages, prof, cpus = team(trace=trace)
        omp = OpenMPRuntime(machine, prof, pages)
        # the bad task comes last, after tasks that would place pages
        tasks = region_tasks(6) + (region_tasks(1, region="missing")
                                   if bad == "unknown-region"
                                   else region_tasks(17)[16:])
        before = (prof.clocks(cpus), len(trace))
        kwargs = dict(region_event="region", n_threads=4, cpus=cpus)
        if construct == "single":
            call, error = lambda: omp.single(
                body_event="body", work_items=tasks, **kwargs), PlacementError
        elif construct == "bad-schedule":
            call, error = lambda: omp.parallel_for(
                loop_event="loop", tasks=region_tasks(6),
                schedule=Schedule("static", 2.5), **kwargs), OpenMPError
        elif construct == "no-tasks":
            call, error = lambda: omp.parallel_for(
                loop_event="loop", tasks=[], **kwargs), OpenMPError
        else:
            call, error = lambda: omp.parallel_for(
                loop_event="loop", tasks=tasks, schedule=construct,
                **kwargs), PlacementError
        with pytest.raises(error):
            call()
        assert (prof.clocks(cpus), len(trace)) == before
        prof.exit_set(cpus, "main")  # "main" is still innermost everywhere
        assert not prof.to_trial("t").has_event("region")


def memo_run(between, *, fresh, construct="for", prefix=None):
    """Place ``r0`` (all of it, or its first ``prefix`` bytes, on node 0),
    run one construct, apply ``between`` to the page table, then run the
    same construct again, on the same runtime or on a fresh one."""
    machine, pages, prof, cpus = team()
    pages.touch("r0", 0, length=prefix)
    omp = OpenMPRuntime(machine, prof, pages)
    tasks = region_tasks(10)

    def run(omp):
        if construct == "single":
            return omp.single(region_event="region", body_event="body",
                              work_items=tasks, n_threads=4, cpus=cpus,
                              master_thread=2)
        return omp.parallel_for(region_event="region", loop_event="loop",
                                tasks=tasks, n_threads=4, cpus=cpus,
                                schedule="static,2")

    first = run(omp)
    between(pages)
    second = run(OpenMPRuntime(machine, prof, pages) if fresh else omp)
    prof.exit_set(cpus, "main")
    trial = prof.to_trial("t")
    return repr((first, second)), [
        trial.exclusive_array(m).tobytes() for m in trial.metric_names()]


def retouch(pages):
    """Give ``r0`` a new placement: all pages on node 3."""
    pages.reset_region("r0")
    pages.touch("r0", 3)


def reallocate(pages):
    pages.free("r0")
    pages.allocate("r0", 16 * 16384)
    pages.touch("r0", 3)


class TestRowsMemo:
    """Rows a construct reuses are the rows it would compute afresh."""

    @pytest.mark.parametrize("construct", ["for", "single"])
    @pytest.mark.parametrize("between", [retouch, reallocate, lambda p: None])
    def test_reused_rows_equal_a_fresh_runtime(self, between, construct):
        assert memo_run(between, fresh=False, construct=construct) == \
            memo_run(between, fresh=True, construct=construct)

    def test_new_placement_changes_the_rows(self):
        # otherwise the equality above would not notice stale rows
        assert memo_run(retouch, fresh=True) != \
            memo_run(lambda p: None, fresh=True)

    @pytest.mark.parametrize("construct", ["for", "single"])
    def test_partially_placed_region_is_not_kept(self, construct):
        machine, pages, prof, cpus = team()
        pages.touch("r0", 0, length=5 * 16384)
        omp = OpenMPRuntime(machine, prof, pages)
        if construct == "single":
            omp.single(region_event="region", body_event="body",
                       work_items=region_tasks(10), n_threads=4, cpus=cpus)
        else:
            omp.parallel_for(region_event="region", loop_event="loop",
                             tasks=region_tasks(10), n_threads=4, cpus=cpus)
        assert not omp._rows_memo
        assert memo_run(retouch, fresh=False, construct=construct,
                        prefix=5 * 16384) == memo_run(
            retouch, fresh=True, construct=construct, prefix=5 * 16384)

    def test_kept_rows_are_read_only(self):
        machine, pages, prof, cpus = team()
        pages.touch("r0", 0)
        omp = OpenMPRuntime(machine, prof, pages)
        omp.parallel_for(region_event="region", loop_event="loop",
                         tasks=region_tasks(10), n_threads=4, cpus=cpus)
        kept = [rows for _, rows in omp._rows_memo.values()]
        assert kept and not any(rows.flags.writeable for rows in kept)
