"""The block store behind ``EventTrace`` reads like a log of single events.

A trace records one block per ``emit_many`` call or lockstep step and
flattens the committed blocks when it is read.  These tests pin what that
must not change: reads taken between appends equal a fresh trace's reads,
the record view (``events``, ``event_at``, indexes and slices) agrees with
itself, a nested step whose keys are replaced records the order of the
per-CPU loop it stands for, records held back by an open step stay out of
every read, and the column readers return the fields the attrs dicts hold.
"""

import numpy as np
import pytest

from repro.apps.genidlest import RIB90, RunConfig, default_machine, run_genidlest
from repro.machine import CounterVector, uniform_machine
from repro.machine import counters as C
from repro.machine.counters import _wrap
from repro.runtime import EventTrace, Profiler, SnapshotProfiler
from repro.runtime import trace as T


def vec(us, fp=0.0):
    return CounterVector({C.TIME: us, C.FP_OPS: fp})


def rows(*us):
    return np.stack([vec(u, 3.0 * u).as_array() for u in us])


def first_steps(prof):
    cpus = [0, 1, 2]
    with prof.lockstep(cpus):
        prof.enter_set(cpus, "main")
        prof.charge_set(cpus, [rows(5.0), rows(7.0, 1.0), rows(2.0)])
    prof.phase("cut")


def more_steps(prof):
    cpus = [2, 0]
    with prof.lockstep(cpus):
        prof.enter_set(cpus, "work", group="LOOP")
        prof.charge_set(cpus, [rows(3.0, 4.0), rows(6.0)])
        prof.exit_set(cpus, "work")
    prof.enter(1, "solo")
    prof.charge_idle(1, 2e-6)
    prof.exit(1, "solo")
    prof.exit_set([0, 1, 2], "main")


def payload(trace):
    """Every read of a trace, in comparable form."""
    cols = trace.columns()
    out = [cols[key].tobytes() for key in ("kind", "cpu", "ts", "name_id")]
    out.append(repr(trace.name_table()))
    out.append(len(trace))
    out.append(sorted(trace.final_clocks().items()))
    out.append([(m, r.tobytes(), v.tobytes())
                for m, (r, v) in trace.charge_columns().items()])
    out.append(trace.charges_fully_recorded)
    for attrs in trace.attrs_column():
        if attrs and "vector" in attrs:
            attrs = dict(attrs, vector=attrs["vector"].as_dict())
        out.append(repr(attrs))
    return out


def event_key(ev):
    attrs = ev.attrs
    if attrs and "vector" in attrs:
        attrs = dict(attrs, vector=attrs["vector"].as_dict())
    return (ev.kind, ev.cpu, ev.ts, ev.name, repr(attrs))


@pytest.mark.parametrize("record_charges", [True, False])
def test_reads_between_appends_equal_a_fresh_read(record_charges):
    read = EventTrace(record_charges=record_charges)
    prof = Profiler(uniform_machine(3), trace=read)
    first_steps(prof)
    early = payload(read)
    # each CPU's last event is a charge: its end is the profiler's clock
    assert read.final_clocks() == {cpu: prof.clock(cpu) for cpu in range(3)}
    more_steps(prof)

    fresh = EventTrace(record_charges=record_charges)
    prof = Profiler(uniform_machine(3), trace=fresh)
    first_steps(prof)
    assert payload(fresh) == early
    more_steps(prof)
    assert payload(read) == payload(fresh)


def test_record_view_agrees_with_event_at():
    trace = EventTrace()
    prof = Profiler(uniform_machine(3), trace=trace)
    first_steps(prof)
    more_steps(prof)
    n = len(trace)
    assert len(trace.events) == n == len(list(trace))
    whole = [event_key(ev) for ev in trace.events]
    assert whole == [event_key(trace.event_at(i)) for i in range(n)]
    assert [event_key(trace.events[i]) for i in range(n)] == whole
    assert [event_key(trace.events[-k]) for k in range(1, n + 1)] == \
        [event_key(trace.event_at(n - k)) for k in range(1, n + 1)]
    for cut in (slice(None), slice(2, 9), slice(1, None, 3), slice(None, -4),
                slice(-3, None), slice(None, None, -2)):
        assert [event_key(ev) for ev in trace.events[cut]] == whole[cut]
    with pytest.raises(IndexError):
        trace.event_at(n)


def test_replaced_keys_record_the_dispatch_order():
    """Rounds of a team step re-key their CPUs by dispatch index, as
    ``OpenMPRuntime`` does for dynamic loops: the trace holds each chunk
    where the per-chunk loop recorded it."""
    team = [0, 1, 2]
    # (cpu, dispatch index) per round: cpu 2's second chunk goes out
    # before cpu 0's, and cpu 1 runs no second chunk
    rounds = [[(0, 0), (1, 1), (2, 2)], [(0, 4), (2, 3)]]

    stepped = EventTrace()
    prof = Profiler(uniform_machine(3), trace=stepped)
    prof.enter_set(team, "region")
    with prof.lockstep(team):
        for chunks in rounds:
            cpus = [cpu for cpu, _ in chunks]
            with prof.lockstep(cpus, [key for _, key in chunks]):
                prof.charge_idle_set(cpus, [1e-6] * len(cpus))
                prof.enter_set(cpus, "chunk")
                prof.charge_set(cpus, [rows(1.0 + cpu, 2.0) for cpu in cpus])
                prof.exit_set(cpus, "chunk")
    prof.exit_set(team, "region")

    looped = EventTrace()
    prof = Profiler(uniform_machine(3), trace=looped)
    prof.enter_set(team, "region")
    for cpu, _ in sorted((c for chunks in rounds for c in chunks),
                         key=lambda chunk: chunk[1]):
        prof.charge_idle(cpu, 1e-6)
        prof.enter(cpu, "chunk")
        for row in rows(1.0 + cpu, 2.0):
            prof.charge(cpu, _wrap(row))
        prof.exit(cpu, "chunk")
    prof.exit_set(team, "region")
    assert payload(stepped) == payload(looped)


def test_name_ids_follow_trace_order():
    """A step records "late" before "early", but reads cpu 0's event
    first, as the per-CPU loop recorded it."""
    stepped = EventTrace()
    prof = Profiler(uniform_machine(2), trace=stepped)
    with prof.lockstep([0, 1]):
        prof.enter_set([1], "late")
        prof.enter_set([0], "early")
    looped = EventTrace()
    prof = Profiler(uniform_machine(2), trace=looped)
    prof.enter(0, "early")
    prof.enter(1, "late")
    assert stepped.name_table() == ["early", "late"]
    assert payload(stepped) == payload(looped)


def test_blocks_keep_copies_of_their_lists():
    trace = EventTrace()
    cpus, ts = [0, 1], [0.5, 0.25]
    trace.emit_many(T.PHASE, cpus, ts, "mark")
    cpus.reverse()
    ts.append(1.0)
    assert trace.columns()["cpu"].tolist() == [0, 1]
    assert trace.columns()["ts"].tolist() == [0.5, 0.25]


def test_open_step_records_stay_out_of_reads():
    trace = EventTrace()
    prof = Profiler(uniform_machine(3), trace=trace)
    first_steps(prof)
    before = payload(trace)
    events = [event_key(ev) for ev in trace.events]
    with prof.lockstep([0, 1]):
        prof.enter_set([0, 1], "held")
        prof.charge_set([0, 1], [rows(9.0), rows(8.0)])
        assert payload(trace) == before
        assert [event_key(ev) for ev in trace.events] == events
        assert trace.cpu_ids() == [0, 1, 2]
        prof.exit_set([0, 1], "held")
    assert len(trace) == len(events) + 6
    assert "held" in trace.name_table()


@pytest.mark.parametrize("callpaths", [False, True])
@pytest.mark.parametrize("record_charges", [None, False, True])
@pytest.mark.parametrize("parent_set", [False, True])
def test_leaf_set_is_enter_charge_exit(callpaths, record_charges, parent_set):
    """One leaf block per CPU set equals the three set calls it
    replaces: accumulators, clocks, trial and trace."""
    row = vec(0.4, 2.0).as_array()
    cpus = [2, 0, 1]

    def run(leaf):
        trace = None if record_charges is None else EventTrace(
            record_charges=record_charges)
        prof = Profiler(uniform_machine(3), callpaths=callpaths, trace=trace)
        if parent_set:
            prof.enter_set(cpus, "main")
        else:
            for cpu in cpus:
                prof.enter(cpu, "main")
        prof.charge_set(cpus, [rows(1.0), rows(2.0), rows(3.0)])
        with prof.lockstep(cpus):
            for event in ("post", "other", "post"):
                if leaf:
                    prof.leaf_set(cpus, event, row, group="MPI", _idle=True)
                else:
                    prof.enter_set(cpus, event, group="MPI")
                    prof.charge_set(cpus, [row[None]] * len(cpus), _idle=True)
                    prof.exit_set(cpus, event)
        clocks = [prof.clock(cpu) for cpu in range(3)]
        prof.exit_set(cpus, "main")
        trial = prof.to_trial("t")
        out = [clocks, repr([(e.name, e.group) for e in trial.events]),
               trial.calls_array().tobytes(), trial.subroutines_array().tobytes(),
               repr(trial.metadata["callgraph"])]
        for metric in trial.metric_names():
            out += [trial.exclusive_array(metric).tobytes(),
                    trial.inclusive_array(metric).tobytes()]
        return out + ([] if trace is None else payload(trace))

    assert run(True) == run(False)


@pytest.fixture(scope="module")
def mpi_trace():
    trace = EventTrace()
    run_genidlest(RunConfig(case=RIB90, n_procs=4, version="mpi", iterations=2),
                  profiler=SnapshotProfiler(default_machine(4), trace=trace))
    return trace


def test_column_readers_match_the_attrs(mpi_trace):
    events = list(mpi_trace.events)
    for kinds, keys in [((T.WAIT,), ("rank", "start", "end")),
                        ((T.SEND, T.RECV), ("rank", "dest", "source", "bytes",
                                            "tag", "ready_at", "req_id")),
                        ((T.COLLECTIVE, T.CHARGE), ("rank", "arrive", "seq",
                                                    "seconds", "idle"))]:
        cols = mpi_trace.kind_columns(kinds, keys)
        picked = [(i, ev) for i, ev in enumerate(events) if ev.kind in kinds]
        assert cols["row"] == [i for i, _ in picked]
        assert cols["kind"] == [ev.kind for _, ev in picked]
        assert cols["cpu"] == [ev.cpu for _, ev in picked]
        assert cols["ts"] == [ev.ts for _, ev in picked]
        assert cols["name"] == [ev.name for _, ev in picked]
        for key in keys:
            assert cols[key] == [ev.get(key) for _, ev in picked]
        assert mpi_trace.field_at(cols["row"], keys[0]) == cols[keys[0]]

    reqs = mpi_trace.request_columns()
    flat = [(i, ev, q) for i, ev in enumerate(events) if ev.kind == T.WAIT
            for q in ev.get("requests")]
    assert reqs["row"] == [i for i, _, _ in flat]
    assert reqs["rank"] == [ev.get("rank") for _, ev, _ in flat]
    assert reqs["end"] == [ev.get("end") for _, ev, _ in flat]
    for key in ("kind", "partner", "bytes", "tag", "ready_at", "posted_at",
                "req_id"):
        assert reqs[key] == [q[key] for _, _, q in flat]

    # each receive completed with the message its partner sent: the
    # SEND's ready time and post time
    sent = sorted((ev.get("rank"), ev.get("dest"), ev.get("tag"),
                   ev.get("ready_at"), ev.ts)
                  for ev in events if ev.kind == T.SEND)
    received = sorted(zip(reqs["partner"], reqs["rank"], reqs["tag"],
                          reqs["ready_at"], reqs["posted_at"]))
    assert received == sent

    rank_of: dict = {}
    for ev in events:
        if ev.kind in T.MPI_KINDS and "rank" in (ev.attrs or {}):
            rank_of.setdefault(ev.cpu, ev.attrs["rank"])
    assert mpi_trace.rank_of_cpu() == rank_of


def test_charge_reads_match_the_attrs(mpi_trace):
    events = list(mpi_trace.events)
    clocks: dict = {}
    for ev in events:
        if ev.cpu >= 0:
            end = ev.ts + (ev.get("seconds", 0.0) if ev.kind == T.CHARGE else 0.0)
            clocks[ev.cpu] = max(clocks.get(ev.cpu, 0.0), end)
    assert mpi_trace.final_clocks() == clocks
    charged = [(i, ev.get("vector")) for i, ev in enumerate(events)
               if ev.kind == T.CHARGE]
    for metric, (at, values) in mpi_trace.charge_columns().items():
        expect = [(i, v[metric]) for i, v in charged if v[metric] != 0.0]
        assert at.tolist() == [i for i, _ in expect]
        assert values.tolist() == [x for _, x in expect]
