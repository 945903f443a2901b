"""Trace analysis operations: reduction, wait states, critical path.

These operate on the event timelines recorded by
:class:`repro.runtime.trace.EventTrace` (and the interval trials cut by
:class:`repro.runtime.snapshot.SnapshotProfiler`) rather than on stored
profiles, mirroring the trace-analysis half of the TAU toolchain:

* :func:`replay_trace` / :class:`TraceToProfileOperation` — trace→profile
  reduction.  A trace is a complete replay log, so feeding it through a
  fresh profiler reproduces the original accounting exactly (the
  consistency property ``tests/runtime/test_trace_consistency.py`` checks).
* :func:`detect_wait_states` / :class:`WaitStateOperation` — the classic
  SPMD wait-state patterns: **late sender** (a receiver blocks in
  ``MPI_Waitall`` until the message lands), **late receiver** (the message
  sat fully transferred before the receiver entered its wait — the eager-
  protocol symmetric case), and **barrier stragglers** (MPI collectives and
  OpenMP barriers where one participant's late arrival makes everyone
  wait).
* :func:`critical_path` / :class:`CriticalPathOperation` — backward walk
  from the last CPU to finish, hopping across ranks through the wait
  dependencies, yielding the chain of compute segments that bounds the
  makespan.
* :func:`interval_imbalance` / :class:`PhaseImbalanceOperation` — per-event
  imbalance ratio (stddev/mean across threads) per interval snapshot, the
  timeline evidence behind ``PhaseImbalanceFact``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ... import observe
from ...machine import Machine
from ...machine import counters as C
from ...machine.counters import counter_slot, counter_width
from ...perfdmf import Trial
from ...runtime import trace as T
from ...runtime.tau import Profiler
from ..result import AnalysisError, PerformanceResult, trial_result
from .base import _ResultList

__all__ = [
    "WaitState",
    "PathSegment",
    "CriticalPathResult",
    "ImbalanceTimeline",
    "replay_trace",
    "detect_wait_states",
    "critical_path",
    "interval_imbalance",
    "TraceToProfileOperation",
    "WaitStateOperation",
    "CriticalPathOperation",
    "PhaseImbalanceOperation",
]


# -- trace → profile reduction ---------------------------------------------

def replay_trace(
    trace: T.EventTrace, machine: Machine, *, callpaths: bool = False
) -> Profiler:
    """Reduce an event trace back to a profile by replaying it.

    Only region events (enter/exit/charge/calls) drive the replay; MPI and
    OpenMP events are derived views of the same activity and are skipped.
    Requires the trace to have been recorded with ``record_charges=True``.

    Flat (non-callpath) replay of a well-formed trace runs through a
    columnar kernel that pairs region instances and folds charge vectors
    straight out of the trace's struct-of-arrays storage; per-counter
    summation order matches the event-by-event profiler exactly, so the
    bitwise-reproduction guarantee is preserved (asserted by
    ``tests/runtime/test_trace_consistency.py``).  Callpath mode and traces
    the kernel cannot prove well-formed fall back to the event-by-event
    replay, which also produces the exact diagnostic errors for malformed
    input.
    """
    if not callpaths and isinstance(trace, T.EventTrace):
        prof = _replay_columnar(trace, machine)
        if prof is not None:
            return prof
    return _replay_eventwise(trace, machine, callpaths=callpaths)


def _replay_eventwise(
    trace: T.EventTrace, machine: Machine, *, callpaths: bool = False
) -> Profiler:
    """Reference replay: drive a fresh profiler one event at a time."""
    prof = Profiler(machine, callpaths=callpaths)
    for ev in trace.events:
        if ev.kind == T.ENTER:
            prof.enter(ev.cpu, ev.name, group=ev.get("group", "TAU_DEFAULT"))
        elif ev.kind == T.EXIT:
            prof.exit(ev.cpu, ev.name)
        elif ev.kind == T.CHARGE:
            vec = ev.get("vector")
            if vec is None:
                raise AnalysisError(
                    "replay_trace: trace was recorded without charge vectors "
                    "(EventTrace(record_charges=False)); cannot reduce to a "
                    "profile"
                )
            prof.charge(ev.cpu, vec, _idle=ev.get("idle", False))
        elif ev.kind == T.CALLS:
            prof.add_calls(ev.cpu, ev.name, ev.get("count", 0.0))
    return prof


def _replay_columnar(trace: T.EventTrace, machine: Machine) -> Profiler | None:
    """Vectorized flat replay over the trace's columnar storage.

    Returns None whenever the trace is not provably well-formed (unbalanced
    or misnamed regions, charges outside a region, missing charge vectors,
    out-of-range CPUs, calls to unregistered events) — the caller then
    re-runs the event-by-event replay, which either handles the case or
    raises the canonical error.

    Bitwise equivalence with the reference replay rests on two facts about
    the profiler's accounting: (1) every accumulator cell is a left-fold
    of float64 additions in a fixed order (chronological per CPU for
    exclusive/clock, per region instance then exit order for inclusive),
    which CPython's ``sum`` over a list slice reproduces exactly (``0.0 +
    x == x`` bit-for-bit because neither :class:`CounterVector` nor the
    accumulators ever hold ``-0.0``); and (2) numpy is used only for
    *structure* — pairing, depths, grouping — never for float
    accumulation, whose pairwise reductions would reorder the fold.
    """
    cols = trace.columns()
    kind_col = cols["kind"]
    cpu_col = cols["cpu"]
    nid_col = cols["name_id"]
    names = trace.name_table()

    K_ENTER = T.KIND_CODES[T.ENTER]
    K_EXIT = T.KIND_CODES[T.EXIT]
    K_CHARGE = T.KIND_CODES[T.CHARGE]
    K_CALLS = T.KIND_CODES[T.CALLS]

    region_mask = (
        (kind_col == K_ENTER) | (kind_col == K_EXIT)
        | (kind_col == K_CHARGE) | (kind_col == K_CALLS)
    )
    prof = Profiler(machine)
    rows = np.nonzero(region_mask)[0]
    if not len(rows):
        return prof
    rcpu = cpu_col[rows]
    if int(rcpu.min()) < 0 or int(rcpu.max()) >= machine.n_cpus:
        return None
    if not trace.charges_fully_recorded:
        return None  # record_charges=False → canonical AnalysisError
    # Group rows by cpu once (stable sort keeps emit order within a cpu)
    # so the per-cpu passes slice instead of re-masking the whole trace.
    order_r = np.argsort(rcpu, kind="stable")
    rows_sorted = rows[order_r]
    rcpu_sorted = rcpu[order_r]
    charge_by_cpu = {}
    for m, (crows, cvarr) in trace.charge_columns().items():
        corder = np.argsort(cpu_col[crows], kind="stable")
        charge_by_cpu[m] = (
            cpu_col[crows][corder], crows[corder], cvarr[corder]
        )

    # Global event registration order: first ENTER of each name, in trace
    # order (what _register_event would have produced).
    enter_rows = rows[kind_col[rows] == K_ENTER]
    enter_nids = nid_col[enter_rows]
    first_enter_row: dict[int, int] = {}
    order_nids, first_pos = np.unique(enter_nids, return_index=True)
    for nid, pos in zip(order_nids.tolist(), first_pos.tolist()):
        first_enter_row[nid] = int(enter_rows[pos])
    first_enters = sorted(first_enter_row.items(), key=lambda kv: kv[1])
    groups = trace.field_at([row for _, row in first_enters], "group",
                            "TAU_DEFAULT")
    for (nid, _), group in zip(first_enters, groups):
        prof._register_event(names[nid], group)

    # CALLS validation: the event must have been registered (first ENTER
    # anywhere) before the CALLS event, and counts must be non-negative.
    calls_rows = rows[kind_col[rows] == K_CALLS].tolist()
    count_of = dict(zip(calls_rows, trace.field_at(calls_rows, "count", 0.0)))
    for row in calls_rows:
        first = first_enter_row.get(int(nid_col[row]))
        if first is None or first > row or count_of[row] < 0:
            return None

    # Folded totals go straight into the profiler's dense accumulators,
    # rows by event index, columns by CPU, planes by counter slot.
    prof._ensure_width(counter_width())
    row_of = np.full(len(names), -1, dtype=np.int64)
    for nid in first_enter_row:
        row_of[nid] = prof._event_index[names[nid]]
    slot_of = {m: counter_slot(m) for m in charge_by_cpu}
    edges: set[tuple[str, str]] = set()
    n_names = len(names)

    for cpu in np.unique(rcpu_sorted).tolist():
        col = prof._column(cpu)
        r_lo = int(np.searchsorted(rcpu_sorted, cpu, side="left"))
        r_hi = int(np.searchsorted(rcpu_sorted, cpu, side="right"))
        gsel = rows_sorted[r_lo:r_hi]  # this CPU's region rows, trace order
        k = kind_col[gsel]
        n = nid_col[gsel]
        delta = (k == K_ENTER).astype(np.int64) - (k == K_EXIT)
        depth_after = np.cumsum(delta)
        if int(depth_after.min()) < 0:
            return None  # exit with empty stack somewhere
        depth_before = depth_after - delta
        enters = np.nonzero(k == K_ENTER)[0]
        exits = np.nonzero(k == K_EXIT)[0]
        charges = np.nonzero(k == K_CHARGE)[0]
        if len(charges) and int(depth_before[charges].min()) == 0:
            return None  # charge outside any region
        if len(enters) != len(exits):
            return None  # regions left open: to_trial must see the stacks

        # Pair region instances per nesting level.  At one level, enters
        # and exits strictly alternate (e1 x1 e2 x2 ...) in a well-formed
        # trace, so pairing by order is exactly stack pairing.
        enter_depth = depth_before[enters]
        exit_depth = depth_before[exits]
        e_parts: list[np.ndarray] = []
        x_parts: list[np.ndarray] = []
        enters_at: dict[int, np.ndarray] = {}
        # nesting depths are contiguous: an enter at depth d needs an open
        # region at depth d-1
        depths = list(range(int(enter_depth.max()) + 1)) if len(enters) else []
        for d in depths:
            e_idx = enters[enter_depth == d]
            x_idx = exits[exit_depth == d + 1]
            enters_at[d] = e_idx
            if len(e_idx) != len(x_idx):
                return None
            if not (e_idx < x_idx).all():
                return None
            if len(e_idx) > 1 and not (x_idx[:-1] < e_idx[1:]).all():
                return None
            if not (n[e_idx] == n[x_idx]).all():
                return None  # exit name mismatch → unbalanced-regions error
            e_parts.append(e_idx)
            x_parts.append(x_idx)
        if e_parts:
            inst_e = np.concatenate(e_parts)
            inst_x = np.concatenate(x_parts)
            order = np.argsort(inst_x)  # process instances in exit order
            inst_e = inst_e[order]
            inst_x = inst_x[order]
            inst_nid = n[inst_e]
        else:
            inst_e = inst_x = inst_nid = np.empty(0, dtype=np.int64)

        # Parents: an enter at depth d>0 belongs to the latest enter at
        # depth d-1 before it (callgraph edges + subroutine counts).
        for d in depths[1:]:
            child_idx = enters[enter_depth == d]
            parent_pool = enters_at.get(d - 1)
            if parent_pool is None or not len(parent_pool):
                return None
            ppos = np.searchsorted(parent_pool, child_idx, side="left") - 1
            if int(ppos.min()) < 0:
                return None
            parents = n[parent_pool[ppos]]
            for code in np.unique(parents * n_names + n[child_idx]).tolist():
                edges.add((names[code // n_names], names[code % n_names]))
            pcounts = np.bincount(parents, minlength=n_names)
            for pnid in np.nonzero(pcounts)[0].tolist():
                prof._subrs[row_of[pnid], col] += float(pcounts[pnid])

        # Flat call counts: +1.0 per enter, merged chronologically with
        # CALLS bumps.  A pure int count of 1.0-adds folds exactly to
        # float(count); only events that also have CALLS rows need the
        # order-preserving fold.
        local_calls = np.nonzero(k == K_CALLS)[0]
        calls_nids = set(n[local_calls].tolist())
        enter_counts = np.bincount(n[enters], minlength=n_names)
        for nid in np.nonzero(enter_counts)[0].tolist():
            if nid not in calls_nids:
                prof._calls[row_of[nid], col] = float(enter_counts[nid])
        if len(local_calls):
            merge_rows = np.sort(np.concatenate([
                enters[np.isin(n[enters], list(calls_nids))], local_calls
            ]))
            folds: dict[int, float] = {}
            for li in merge_rows.tolist():
                nid = int(n[li])
                if k[li] == K_ENTER:
                    folds[nid] = folds.get(nid, 0.0) + 1.0
                else:
                    folds[nid] = folds.get(nid, 0.0) + count_of[int(gsel[li])]
            for nid, total in folds.items():
                prof._calls[row_of[nid], col] = total

        # Charge payloads per counter, straight from the trace's charge
        # columns: local charge-sequence positions + float64 values (the
        # recorded vectors' own doubles).
        gcharges = gsel[charges]  # global row ids of this cpu's charges
        per_counter: dict[str, tuple] = {}
        for m, (scpu, srows, svals) in charge_by_cpu.items():
            c_lo = int(np.searchsorted(scpu, cpu, side="left"))
            c_hi = int(np.searchsorted(scpu, cpu, side="right"))
            if c_hi > c_lo:
                if c_hi - c_lo == len(charges):
                    loc = None  # counter on every charge: identity mapping
                else:
                    loc = np.searchsorted(
                        gcharges, srows[c_lo:c_hi], side="left"
                    )
                per_counter[m] = (loc, svals[c_lo:c_hi])

        # Innermost region per charge: the latest enter one level up.
        if len(charges):
            innermost = np.empty(len(charges), dtype=np.int64)
            cdepth = depth_before[charges]
            for d in np.unique(cdepth).tolist():
                msk = cdepth == d
                pool = enters_at.get(d - 1)
                if pool is None or not len(pool):
                    return None
                pos = np.searchsorted(pool, charges[msk], side="left") - 1
                if int(pos.min()) < 0:
                    return None
                innermost[msk] = pool[pos]
            inner_nid = n[innermost]
        else:
            inner_nid = np.empty(0, dtype=np.int64)

        # Exclusive: chronological per-counter fold over each innermost
        # region's charges (sum over a list of Python floats is the same
        # sequential left-fold the profiler's += chain performs).
        for m, (loc, varr) in per_counter.items():
            nids = inner_nid if loc is None else inner_nid[loc]
            for nid in np.nonzero(np.bincount(nids, minlength=n_names))[0].tolist():
                prof._exclusive[row_of[nid], col, slot_of[m]] = sum(
                    varr[nids == nid].tolist()
                )

        # Inclusive: each instance sums every charge inside its interval
        # (any depth); per (event, counter) the instance subtotals fold in
        # exit order, exactly like Profiler.exit's copy-then-+= sequence.
        # Both folds stay sequential left-folds: same-length instance
        # segments fold via elementwise numpy adds (each lane is its own
        # left fold, bitwise-identical to the scalar chain), odd-size
        # segments via CPython's sequential ``sum``.
        if len(inst_e) and per_counter:
            ch_lo = np.searchsorted(charges, inst_e, side="left")
            ch_hi = np.searchsorted(charges, inst_x, side="left")
            for m, (loc, varr) in per_counter.items():
                if loc is None:
                    i0s, i1s = ch_lo, ch_hi
                else:
                    i0s = np.searchsorted(loc, ch_lo, side="left")
                    i1s = np.searchsorted(loc, ch_hi, side="left")
                counts = i1s - i0s
                sub = np.zeros(len(counts), dtype=np.float64)
                vlist = None
                cnt_hist = np.bincount(counts)
                for kcnt in np.nonzero(cnt_hist)[0].tolist():
                    if kcnt == 0:
                        continue
                    sel2 = np.nonzero(counts == kcnt)[0]
                    if kcnt <= 64:
                        base = i0s[sel2]
                        acc = varr[base]
                        for j in range(1, kcnt):
                            acc = acc + varr[base + j]
                        sub[sel2] = acc
                    else:
                        if vlist is None:
                            vlist = varr.tolist()
                        for ii in sel2.tolist():
                            sub[ii] = sum(vlist[i0s[ii]:i1s[ii]])
                have = np.nonzero(counts > 0)[0]
                nids_i = inst_nid[have]
                subs_i = sub[have]
                for nid in np.nonzero(
                    np.bincount(nids_i, minlength=n_names)
                )[0].tolist():
                    prof._inclusive[row_of[nid], col, slot_of[m]] = sum(
                        subs_i[nids_i == nid].tolist()
                    )

        # Virtual clock: the sequential fold of TIME/1e6 over the charges.
        # Only CPUs that opened/charged regions get a _CPUState — a CPU
        # seen solely through CALLS events never touches _cpu() in the
        # reference replay and must not become a thread in to_trial.
        if len(enters) or len(exits) or len(charges):
            state = prof._cpu(cpu)
            tpos = per_counter.get(C.TIME)
            if tpos is not None:
                # elementwise /1e6 matches the scalar divisions; the fold
                # over the quotients stays CPython-sequential
                state.clock_seconds = sum((tpos[1] / 1e6).tolist())

    prof._edges = edges
    return prof


# -- wait-state detection --------------------------------------------------

@dataclass(frozen=True)
class WaitState:
    """One diagnosed wait-state instance.

    ``rank`` is the *offending* participant (the late sender, the late
    receiver, the barrier straggler); ``victim`` is the participant that
    paid the most wait time.  For OpenMP constructs, ranks are thread
    indices and ``construct`` is ``"openmp"``.
    """

    kind: str  # "late-sender" | "late-receiver" | "barrier-straggler"
    rank: int
    victim: int
    wait_seconds: float
    event: str
    t_start: float
    t_end: float
    construct: str = "mpi"


def _arrivals(trace: T.EventTrace, *kinds: str) -> dict:
    """The ``COLLECTIVE``/``BARRIER`` events of ``kinds`` grouped by (kind,
    name, seq), in trace order: each member's (cpu, rank or thread,
    arrive, release), arrive and release defaulting to its timestamp."""
    cols = trace.kind_columns(kinds, ("rank", "thread", "arrive", "release",
                                      "seq"))
    groups: dict = {}
    for kind, name, seq, cpu, ts, rank, thread, arrive, release in zip(
            cols["kind"], cols["name"], cols["seq"], cols["cpu"], cols["ts"],
            cols["rank"], cols["thread"], cols["arrive"], cols["release"]):
        groups.setdefault((kind, name, seq), []).append((
            cpu, rank if kind == T.COLLECTIVE else thread,
            ts if arrive is None else arrive, ts if release is None else release))
    return groups


def _barrier_states(
    groups: dict, *, construct: str, min_wait: float
) -> list[WaitState]:
    out: list[WaitState] = []
    for (_, name, _seq), members in sorted(groups.items(),
                                           key=lambda kv: kv[0][2]):
        if len(members) < 2:
            continue
        straggler = max(members, key=lambda m: m[2])
        worst = min(members, key=lambda m: m[2])
        wait = straggler[2] - worst[2]
        if wait > min_wait:
            out.append(WaitState(
                kind="barrier-straggler",
                rank=straggler[1],
                victim=worst[1],
                wait_seconds=wait,
                event=name,
                t_start=worst[2],
                t_end=straggler[2],
                construct=construct,
            ))
    return out


def detect_wait_states(
    trace: T.EventTrace, *, min_wait_seconds: float = 1e-9
) -> list[WaitState]:
    """Scan a trace for late-sender / late-receiver / straggler patterns."""
    states: list[WaitState] = []
    reqs = trace.request_columns()
    for name, rank, start, end, kind, partner, ready in zip(
            reqs["name"], reqs["rank"], reqs["start"], reqs["end"],
            reqs["kind"], reqs["partner"], reqs["ready_at"]):
        if kind != "recv" or ready is None or partner is None:
            continue
        if ready - start > min_wait_seconds:
            # Receiver blocked until the partner's message landed.
            states.append(WaitState(
                kind="late-sender",
                rank=partner,
                victim=rank,
                wait_seconds=ready - start,
                event=name,
                t_start=start,
                t_end=min(ready, end),
            ))
        elif start - ready > min_wait_seconds:
            # Message sat fully transferred before the receiver entered
            # its wait (the eager-protocol late-receiver symptom: the
            # receiver itself is late).
            states.append(WaitState(
                kind="late-receiver",
                rank=rank,
                victim=partner,
                wait_seconds=start - ready,
                event=name,
                t_start=ready,
                t_end=start,
            ))
    states.extend(_barrier_states(
        _arrivals(trace, T.COLLECTIVE), construct="mpi",
        min_wait=min_wait_seconds))
    states.extend(_barrier_states(
        _arrivals(trace, T.BARRIER), construct="openmp",
        min_wait=min_wait_seconds))
    states.sort(key=lambda s: s.t_start)
    return states


def total_wait_by_rank(states: Sequence[WaitState]) -> dict[int, float]:
    """Total wait seconds *caused* per offending rank."""
    totals: dict[int, float] = {}
    for s in states:
        totals[s.rank] = totals.get(s.rank, 0.0) + s.wait_seconds
    return totals


# -- critical path ---------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    cpu: int
    event: str
    t_start: float
    t_end: float
    idle: bool

    @property
    def seconds(self) -> float:
        return self.t_end - self.t_start


@dataclass
class CriticalPathResult:
    """The rank-crossing chain of segments bounding the makespan."""

    segments: list[PathSegment]  # forward time order
    makespan: float

    @property
    def compute_seconds(self) -> float:
        return sum(s.seconds for s in self.segments if not s.idle)

    @property
    def wait_seconds(self) -> float:
        return sum(s.seconds for s in self.segments if s.idle)


@dataclass(frozen=True)
class _Blocking:
    """An interval during which a CPU was provably waiting on another."""

    start: float
    end: float
    origin_cpu: int
    origin_time: float


def _blocking_intervals(trace: T.EventTrace) -> dict[int, list[_Blocking]]:
    rank_cpu = {r: c for c, r in trace.rank_of_cpu().items()}
    out: dict[int, list[_Blocking]] = {}

    def add(cpu: int, b: _Blocking) -> None:
        out.setdefault(cpu, []).append(b)

    # The message that completed last is the one a wait was for.
    last: dict[int, tuple] = {}
    reqs = trace.request_columns()
    for row, cpu, start, end, kind, partner, ready, posted in zip(
            reqs["row"], reqs["cpu"], reqs["start"], reqs["end"],
            reqs["kind"], reqs["partner"], reqs["ready_at"],
            reqs["posted_at"]):
        if end - start > 0 and kind == "recv" and ready is not None and (
                row not in last or ready > last[row][0]):
            last[row] = (ready, cpu, start, end, partner, posted)
    for _, cpu, start, end, partner, posted in last.values():
        origin_cpu = rank_cpu.get(partner)
        if origin_cpu is not None:
            add(cpu, _Blocking(start, end, origin_cpu, posted or 0.0))
    for members in _arrivals(trace, T.COLLECTIVE, T.BARRIER).values():
        if len(members) < 2:
            continue
        straggler = max(members, key=lambda m: m[2])
        for member in members:
            cpu, _, arrive, release = member
            if member is not straggler and release - arrive > 0:
                add(cpu, _Blocking(arrive, release, straggler[0], straggler[2]))
    for lst in out.values():
        lst.sort(key=lambda b: b.end)
    return out


def critical_path(trace: T.EventTrace) -> CriticalPathResult:
    """Extract the critical path by walking backward from the last CPU to
    finish, hopping to the blocking CPU whenever the walk lands in an idle
    interval caused by a message or barrier dependency."""
    eps = 1e-12
    charges: dict[int, list[tuple[float, float, str, bool]]] = {}
    cols = trace.kind_columns((T.CHARGE,), ("seconds", "idle"))
    for cpu, ts, name, sec, idle in zip(cols["cpu"], cols["ts"], cols["name"],
                                        cols["seconds"], cols["idle"]):
        charges.setdefault(cpu, []).append(
            (ts, ts + (sec or 0.0), name, bool(idle)))
    if not charges:
        return CriticalPathResult([], 0.0)
    blocking = _blocking_intervals(trace)
    clocks = trace.final_clocks()
    cpu = max(clocks, key=lambda c: clocks[c])
    t = clocks[cpu]
    makespan = t
    raw: list[PathSegment] = []
    budget = 4 * sum(len(v) for v in charges.values()) + 16
    while t > eps and budget > 0:
        budget -= 1
        lane = charges.get(cpu, [])
        # Last charge starting strictly before t: charges tile each CPU's
        # clock, so t falls inside (start, end] of exactly one of them.
        lo, hi = 0, len(lane)
        while lo < hi:
            mid = (lo + hi) // 2
            if lane[mid][0] < t - eps:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            break
        start, end, name, idle = lane[lo - 1]
        if idle:
            jump = None
            for b in blocking.get(cpu, ()):
                if b.start - eps <= t <= b.end + eps and b.origin_time < t - eps:
                    jump = b
                    break
            if jump is not None:
                hop = max(start, jump.origin_time)
                raw.append(PathSegment(cpu, name, hop, t, True))
                cpu, t = jump.origin_cpu, jump.origin_time
                continue
            raw.append(PathSegment(cpu, name, start, t, True))
        else:
            raw.append(PathSegment(cpu, name, start, t, False))
        t = start
    # merge adjacent same-(cpu, event, idle) segments, forward order
    raw.reverse()
    merged: list[PathSegment] = []
    for seg in raw:
        if seg.seconds <= eps:
            continue
        if (merged
                and merged[-1].cpu == seg.cpu
                and merged[-1].event == seg.event
                and merged[-1].idle == seg.idle
                and abs(merged[-1].t_end - seg.t_start) <= eps):
            merged[-1] = PathSegment(
                seg.cpu, seg.event, merged[-1].t_start, seg.t_end, seg.idle
            )
        else:
            merged.append(seg)
    return CriticalPathResult(merged, makespan)


# -- interval imbalance ----------------------------------------------------

@dataclass(frozen=True)
class ImbalanceTimeline:
    """Per-interval imbalance ratios for one event across snapshots."""

    event: str
    ratios: tuple[float, ...]
    labels: tuple  # interval labels (may contain None)
    #: The event's mean share of total exclusive time across intervals —
    #: a severity proxy, like the profile rules' severity.
    mean_share: float

    @property
    def first_ratio(self) -> float:
        return self.ratios[0]

    @property
    def last_ratio(self) -> float:
        return self.ratios[-1]

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)

    @property
    def worst_interval(self) -> int:
        return int(np.argmax(self.ratios))

    @property
    def growth(self) -> float:
        """last/first ratio; inf when imbalance appears from nothing."""
        if self.first_ratio > 0:
            return self.last_ratio / self.first_ratio
        return float("inf") if self.last_ratio > 0 else 1.0

    @property
    def slope(self) -> float:
        """Least-squares slope of ratio over interval index."""
        if len(self.ratios) < 2:
            return 0.0
        x = np.arange(len(self.ratios), dtype=float)
        return float(np.polyfit(x, np.asarray(self.ratios), 1)[0])

    @property
    def trend(self) -> str:
        if len(self.ratios) >= 2 and self.slope > 0 and \
                self.last_ratio >= 1.2 * self.first_ratio:
            return "growing"
        if len(self.ratios) >= 2 and self.slope < 0 and \
                self.last_ratio <= 0.8 * self.first_ratio:
            return "shrinking"
        return "steady"


def interval_imbalance(
    snapshots: Sequence[Trial],
    *,
    metric: str = C.TIME,
    min_share: float = 0.0,
) -> list[ImbalanceTimeline]:
    """Compute per-event imbalance ratios over a snapshot sequence.

    For each flat event, each interval contributes stddev/mean of the
    event's exclusive ``metric`` across threads — the paper's imbalance
    statistic, now resolved in time.  Events whose share of total time is
    at most ``min_share`` are dropped.
    """
    if not snapshots:
        raise AnalysisError("interval_imbalance: no snapshots")
    n = len(snapshots)
    # pre-sized rows keep interval alignment for events that only appear
    # partway through the run (absent intervals contribute ratio/share 0)
    ratio_rows: dict[str, list[float]] = {}
    share_rows: dict[str, list[float]] = {}
    labels = []
    for i, trial in enumerate(snapshots):
        labels.append((trial.metadata.get("interval") or {}).get("label"))
        excl = trial.exclusive_array(metric)
        total = float(excl.sum())
        # one vectorized pass per snapshot instead of three reductions per
        # event row
        means = excl.mean(axis=1)
        stds = excl.std(axis=1)
        sums = excl.sum(axis=1)
        for e, event in enumerate(trial.events):
            if event.is_callpath:
                continue
            mean = float(means[e])
            ratio = float(stds[e]) / mean if mean > 0 else 0.0
            share = float(sums[e]) / total if total > 0 else 0.0
            ratio_rows.setdefault(event.name, [0.0] * n)[i] = ratio
            share_rows.setdefault(event.name, [0.0] * n)[i] = share
    out = []
    for name, ratios in ratio_rows.items():
        shares = share_rows[name]
        mean_share = float(np.mean(shares)) if shares else 0.0
        if mean_share <= min_share:
            continue
        out.append(ImbalanceTimeline(
            event=name,
            ratios=tuple(ratios),
            labels=tuple(labels),
            mean_share=mean_share,
        ))
    out.sort(key=lambda tl: tl.mean_share, reverse=True)
    return out


# -- operation wrappers ----------------------------------------------------

class _TraceOperation:
    """Minimal operation shim for trace inputs (not PerformanceResults):
    same ``process_data``/``processData`` contract as
    :class:`PerformanceAnalysisOperation`, wrapped in a telemetry span."""

    def __init__(self) -> None:
        self.outputs: list = []

    def _run(self) -> list:
        raise NotImplementedError

    def process_data(self) -> list:
        if observe.enabled():
            with observe.span(f"operation.{type(self).__name__}") as sp:
                self.outputs = self._run()
                sp.set(outputs=len(self.outputs))
        else:
            self.outputs = self._run()
        return self.outputs

    def processData(self) -> _ResultList:
        return _ResultList(self.process_data())


class TraceToProfileOperation(_TraceOperation):
    """Reduce an event trace to a profile result (TAU's trace2profile)."""

    def __init__(
        self,
        trace: T.EventTrace,
        machine: Machine,
        *,
        name: str = "replayed",
        callpaths: bool = False,
    ) -> None:
        super().__init__()
        self.trace = trace
        self.machine = machine
        self.name = name
        self.callpaths = callpaths

    def _run(self) -> list[PerformanceResult]:
        prof = replay_trace(self.trace, self.machine, callpaths=self.callpaths)
        return [trial_result(prof.to_trial(self.name))]


class WaitStateOperation(_TraceOperation):
    """Detect late-sender / late-receiver / straggler wait states."""

    def __init__(
        self, trace: T.EventTrace, *, min_wait_seconds: float = 1e-9
    ) -> None:
        super().__init__()
        self.trace = trace
        self.min_wait_seconds = min_wait_seconds

    def _run(self) -> list[WaitState]:
        return detect_wait_states(
            self.trace, min_wait_seconds=self.min_wait_seconds
        )


class CriticalPathOperation(_TraceOperation):
    """Extract the cross-rank critical path from a trace."""

    def __init__(self, trace: T.EventTrace) -> None:
        super().__init__()
        self.trace = trace

    def _run(self) -> list[CriticalPathResult]:
        return [critical_path(self.trace)]


class PhaseImbalanceOperation(_TraceOperation):
    """Per-interval imbalance timelines over snapshot sub-trials."""

    def __init__(
        self,
        snapshots: Sequence[Trial],
        *,
        metric: str = C.TIME,
        min_share: float = 0.0,
    ) -> None:
        super().__init__()
        self.snapshots = list(snapshots)
        self.metric = metric
        self.min_share = min_share

    def _run(self) -> list[ImbalanceTimeline]:
        return interval_imbalance(
            self.snapshots, metric=self.metric, min_share=self.min_share
        )
