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
    columnar kernel: ordered ``np.add.at`` scatter-adds of the trace's
    columns into the profiler's accumulators, each cell receiving its
    addends in the order the event-by-event profiler adds them, so the
    result is bitwise identical (asserted by ``test_trace_consistency.py``
    and ``test_replay_edges.py`` in ``tests/runtime``).  Callpath mode and
    traces the kernel cannot prove well-formed fall back to the
    event-by-event replay, which also produces the exact diagnostic errors
    for malformed input.
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
    """Flat replay as ordered scatter-adds over the trace's columns.

    Returns None whenever the trace is not provably well-formed (unbalanced
    or misnamed regions, charges outside a region, missing charge vectors,
    out-of-range CPUs, calls to unregistered events, negative call counts)
    — the caller then re-runs the event-by-event replay, which either
    handles the case or raises the canonical error.

    Every accumulator cell of the profiler is a left fold of float64
    additions in a fixed order: chronological per CPU for call counts,
    exclusive values and clocks; per region instance, then in exit order,
    for inclusive values.  ``np.add.at`` is unbuffered and applies repeated
    indices in the order given, so scattering the addends in that order
    performs the same folds bit for bit.  The trace keeps only each
    charge's nonzero counters; adding nothing, or +0.0, in place of a zero
    changes no cell, since a cell that starts at +0.0 never holds -0.0.
    """
    cols = trace.columns()
    kind, nid = cols["kind"], cols["name_id"]
    names = trace.name_table()
    K_ENTER, K_EXIT, K_CHARGE, K_CALLS = (
        T.KIND_CODES[k] for k in (T.ENTER, T.EXIT, T.CHARGE, T.CALLS))
    prof = Profiler(machine)
    rows = np.flatnonzero(np.isin(kind, (K_ENTER, K_EXIT, K_CHARGE, K_CALLS)))
    if not len(rows):
        return prof
    cpu = cols["cpu"][rows]
    if (cpu.min() < 0 or cpu.max() >= machine.n_cpus
            or not trace.charges_fully_recorded):  # record_charges=False
        return None

    # Events register at their first ENTER anywhere, in trace order.
    enter_rows = rows[kind[rows] == K_ENTER]
    seen, first = np.unique(nid[enter_rows], return_index=True)
    first_row = np.full(len(names), len(kind))  # never entered: after all
    first_row[seen] = enter_rows[first]
    by_first = seen[np.argsort(first)]  # name ids in registration order
    groups = trace.field_at(first_row[by_first], "group", "TAU_DEFAULT")
    event_of = np.zeros(len(names), dtype=np.intp)  # name id → event row
    event_of[by_first] = [prof._register_event(names[i], group)
                          for i, group in zip(by_first.tolist(), groups)]

    # Region rows by CPU (stable: trace order within a CPU).  Positions in
    # this order are CPU-major, so the (level, position) keys of the enters
    # order each level's instances by (CPU, position): the last key below
    # (level, position of a row deeper than level) is the instance open at
    # that level on the row's CPU.
    s = rows[np.argsort(cpu, kind="stable")]
    k, n, c = kind[s], nid[s], cols["cpu"][s]
    m = len(s)
    delta = (k == K_ENTER).astype(np.int64) - (k == K_EXIT)
    depth = np.cumsum(delta)  # open regions after each row
    level = depth - delta  # ... and before it
    last = np.append(np.flatnonzero(np.diff(c)), m - 1)  # each CPU's last row
    charges = np.flatnonzero(k == K_CHARGE)
    # Once every CPU's walk ends at zero the plain cumsum is the per-CPU
    # one; a walk that never goes negative pairs each exit with the
    # innermost open region, so only the exit's name is left to check.
    if depth.min() < 0 or depth[last].any() or not level[charges].all():
        return None
    calls = np.flatnonzero(k == K_CALLS)
    weight = np.ones(m)  # call-count bump: 1.0 per enter, count per CALLS
    if len(calls):
        weight[calls] = trace.field_at(s[calls], "count", 0.0)
    if (first_row[n[calls]] > s[calls]).any() or (weight[calls] < 0).any():
        return None
    enters = np.flatnonzero(k == K_ENTER)
    keys = level[enters] * m + enters
    order = np.argsort(keys)
    keys, enters = keys[order], enters[order]  # instance i opens at enters[i]

    def open_at(lv, at):
        """The instance open at level ``lv`` just before position ``at``."""
        return np.searchsorted(keys, lv * m + at) - 1

    exits = np.flatnonzero(k == K_EXIT)
    closed = open_at(depth[exits], exits)  # instance each exit closes
    if (n[enters[closed]] != n[exits]).any():
        return None  # misnamed exit → canonical unbalanced-regions error

    prof._ensure_width(counter_width())
    cpus = c[last].tolist()
    runs = np.diff(last, prepend=-1)  # rows per CPU
    col = np.repeat([prof._column(x) for x in cpus], runs)
    # Each row's (event, column) cell in the flat accumulators: they are
    # C-contiguous, so reshape(-1) is a view, and flat indices keep
    # np.add.at on its fast path.
    cell = event_of[n] * prof._calls.shape[1] + col
    width = prof._exclusive.shape[2]
    # Only CPUs that opened/charged regions get a _CPUState: a CPU seen
    # solely through CALLS never touches _cpu() in the reference replay
    # and must not become a thread in to_trial.
    active = np.logical_or.reduceat(k != K_CALLS, last - runs + 1).tolist()

    # Call counts: the bumps of enters and CALLS rows, in trace order.
    bumps = np.sort(np.concatenate([enters, calls]))
    np.add.at(prof._calls.reshape(-1), cell[bumps], weight[bumps])
    # Subroutine counts and callgraph edges: each nested enter's parent is
    # the instance open one level up.
    nested = enters[level[enters] > 0]
    parent = enters[open_at(level[nested] - 1, nested)]
    np.add.at(prof._subrs.reshape(-1), cell[parent], 1.0)
    for code in np.unique(n[parent] * len(names) + n[nested]).tolist():
        prof._edges.add((names[code // len(names)], names[code % len(names)]))

    # Charges: exclusive to the innermost instance; every open instance
    # (level 0 .. depth-1) folds the charge into its own subtotal, in the
    # order the charges happened.
    open_count = level[charges]
    inner = enters[open_at(open_count - 1, charges)]
    frame = np.repeat(np.arange(len(charges)), open_count)  # (charge, level)
    frame_level = np.arange(len(frame)) - np.repeat(
        np.cumsum(open_count) - open_count, open_count)
    frame_inst = open_at(frame_level, charges[frame])
    charge_of_row = np.zeros(len(kind), dtype=np.intp)
    charge_of_row[s[charges]] = np.arange(len(charges))
    inner_cell, exit_cell = cell[inner] * width, cell[exits] * width
    clocks = np.zeros(machine.n_cpus)
    for counter, (crows, values) in trace.charge_columns().items():
        slot = counter_slot(counter)
        at = charge_of_row[crows]
        added = np.zeros(len(charges))
        added[at] = values
        np.add.at(prof._exclusive.reshape(-1), inner_cell[at] + slot, values)
        subtotal = np.zeros(len(keys))
        np.add.at(subtotal, frame_inst, added[frame])
        np.add.at(prof._inclusive.reshape(-1), exit_cell + slot,
                  subtotal[closed])
        if counter == C.TIME:
            np.add.at(clocks, c[charges[at]], values / 1e6)
    for x, a in zip(cpus, active):
        if a:
            prof._cpu(x).clock_seconds = float(clocks[x])
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
