"""TAU-like measurement runtime for the simulated machine.

Real TAU interposes timers around instrumented regions and reads hardware
counters at region entry/exit.  In simulation there is nothing to measure —
costs are *computed* — so the profiler inverts the flow: the runtime layers
(OpenMP/MPI simulators, instrumented compiled code) **charge** counter
vectors to the region stack of a virtual CPU, and the profiler maintains
exactly the accounting TAU would have produced:

* exclusive counters accumulate on the innermost open region,
* inclusive counters accumulate on every open region,
* call counts increment at region entry,
* each CPU has a virtual wall clock advanced by the TIME component.

``to_trial`` then emits a standard :class:`~repro.perfdmf.Trial`, with the
observed caller→callee edges stored in trial metadata (``callgraph``) for
the nesting tests the paper's imbalance rule performs.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Mapping

import numpy as np

from ..machine import CounterVector, Machine
from ..machine import counters as C
from ..machine.counters import _wrap, counter_name, counter_width, widen
from ..perfdmf import Event, Metric, ThreadId, Trial
from . import trace as T

#: Slot of the TIME counter, which advances the virtual clocks.
_TIME = C.counter_slot(C.TIME)


class MeasurementError(Exception):
    """Raised on unbalanced enter/exit or charges outside any region."""


class _OpenRegion:
    __slots__ = ("name", "event", "path", "path_event")

    def __init__(self, name: str, event: int, path: str | None,
                 path_event: int) -> None:
        self.name = name
        #: Row of the event in the profiler's accumulators.
        self.event = event
        #: Full callpath name ("a => b => this"); only set in callpath mode.
        self.path = path
        #: Row of the callpath event, or -1 when it has none of its own.
        self.path_event = path_event


class _CPUState:
    """One CPU's open regions and virtual clock (the region open at depth
    ``d`` accumulates in the profiler's open frames at ``[column, d]``)."""

    __slots__ = ("stack", "clock_seconds", "column")

    def __init__(self, column: int) -> None:
        self.stack: list[_OpenRegion] = []
        self.clock_seconds: float = 0.0
        #: Column of this CPU in the profiler's accumulators.
        self.column = column


class _CPUSet:
    """Distinct CPUs' states and accumulator columns, as an index array
    and as ``cols``, a slice when they are contiguous."""

    __slots__ = ("states", "columns", "cols")

    def __init__(self, states: list[_CPUState]) -> None:
        self.states = states
        self.columns = np.array([s.column for s in states], dtype=np.intp)
        start = int(self.columns[0]) if states else 0
        contiguous = np.array_equal(self.columns, start + np.arange(len(states)))
        self.cols = slice(start, start + len(states)) if contiguous else self.columns


def _lockstep_top(states: list[_CPUState]):
    """The region on top of all of ``states``' stacks if it is one object
    (then at one depth: only :meth:`Profiler.enter_set` shares a region, on
    CPUs with one parent), ``None`` if all are empty, else ``False``."""
    tops = [s.stack[-1] if s.stack else None for s in states]
    return tops[0] if tops and tops.count(tops[0]) == len(tops) else False


def _resized(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``array`` zero-extended (never cut) to ``shape``."""
    if array.shape == shape:
        return array
    out = np.zeros(shape)
    out[tuple(slice(0, n) for n in array.shape)] = array
    return out


def _grown(have: int, need: int) -> int:
    return have if need <= have else max(need, 2 * have)


class Profiler:
    """Per-CPU region stacks and counter accumulation.

    Parameters
    ----------
    machine:
        Supplies the CPU count and node mapping for thread ids.
    callpaths:
        When True, emit TAU-style callpath events (``"a => b => c"``)
        alongside the flat events, exactly as ``TAU_CALLPATH`` profiling
        does: each path accumulates its own exclusive/inclusive counters
        and call counts, so the same leaf called from two parents is
        distinguishable.
    trace:
        Optional :class:`~repro.runtime.trace.EventTrace`; when attached,
        every enter/exit/charge is also logged as a timestamped event
        (TAU's tracing mode).  ``None`` (the default) keeps the hooks to a
        single attribute check per call.

    The accumulators are dense: exclusive and inclusive counters live in
    ``(event, cpu column, counter slot)`` arrays and call counts in
    ``(event, cpu column)`` arrays, with events in registration order and
    CPU columns in order of first activity.  Every cell is the same
    left fold of float additions, in the same order, that a per-region
    dictionary of counter vectors would hold.  Open regions' inclusive
    partials live in one ``(cpu column, depth, counter slot)`` array.

    The ``*_set`` methods do what a loop of the scalar call over distinct
    CPUs does, as one elementwise step over CPUs in lockstep (else as that
    loop): each cell gets its own CPU's additions in the same order, so
    results are bit-identical; a block of many rows on few CPUs is folded
    in one ``np.add.accumulate`` pass, the same additions in the same
    order.  Inside :meth:`lockstep` the trace records them CPU by CPU, as
    the loop would.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        callpaths: bool = False,
        trace: "T.EventTrace | None" = None,
    ) -> None:
        self.machine = machine
        self.callpaths = callpaths
        self.trace = trace
        self._cpus: dict[int, _CPUState] = {}
        self._columns: dict[int, int] = {}
        self._width = counter_width()
        self._exclusive = np.zeros((16, 4, self._width))
        self._inclusive = np.zeros((16, 4, self._width))
        self._calls = np.zeros((16, 4))
        self._subrs = np.zeros((16, 4))
        self._open = np.zeros((4, 4, self._width))
        self._path_open = np.zeros((4, 4, self._width)) if callpaths else None
        self._sets: dict[tuple[int, ...], _CPUSet] = {}
        self._groups: dict[str, str] = {}
        self._event_index: dict[str, int] = {}
        self._edges: set[tuple[str, str]] = set()
        self._event_order: list[str] = []
        self._phase_count = 0

    def _reserve(self, events: int = 0, columns: int = 0, width: int = 0,
                 depth: int = 0) -> None:
        """Grow the accumulators to hold at least the given extents."""
        e, c, w = self._exclusive.shape
        shape = (_grown(e, events), _grown(c, columns), max(w, width))
        if shape != (e, c, w):
            self._exclusive = _resized(self._exclusive, shape)
            self._inclusive = _resized(self._inclusive, shape)
            self._calls = _resized(self._calls, shape[:2])
            self._subrs = _resized(self._subrs, shape[:2])
        c, d, w = self._open.shape
        shape = (_grown(c, columns), _grown(d, depth), max(w, width))
        if shape != (c, d, w):
            self._open = _resized(self._open, shape)
            if self._path_open is not None:
                self._path_open = _resized(self._path_open, shape)

    def _ensure_width(self, width: int) -> None:
        """Make room for counter slots registered since construction."""
        if width > self._width:
            self._width = width
            self._reserve(width=width)

    def _fit(self, counters: np.ndarray) -> np.ndarray:
        if counters.shape[-1] < self._width:
            return widen(counters, self._width)
        self._ensure_width(counters.shape[-1])
        return counters

    def _column(self, cpu: int) -> int:
        column = self._columns.get(cpu)
        if column is None:
            column = self._columns[cpu] = len(self._columns)
            self._reserve(columns=column + 1)
        return column

    def _cpu(self, cpu: int) -> _CPUState:
        state = self._cpus.get(cpu)
        if state is None:
            if not 0 <= cpu < self.machine.n_cpus:
                raise MeasurementError(
                    f"cpu {cpu} out of range (machine has {self.machine.n_cpus})"
                )
            state = self._cpus[cpu] = _CPUState(self._column(cpu))
        return state

    def _set(self, cpus) -> _CPUSet:
        """The (cached) :class:`_CPUSet` of distinct ``cpus``."""
        key = tuple(cpus)
        found = self._sets.get(key)
        if found is None:
            if len(set(key)) != len(key):
                raise MeasurementError(f"cpus {list(key)} are not distinct")
            if len(self._sets) >= 64:
                self._sets.clear()
            found = self._sets[key] = _CPUSet([self._cpu(c) for c in key])
        return found

    def _register_event(self, event: str, group: str) -> int:
        index = self._event_index.get(event)
        if index is None:
            index = self._event_index[event] = len(self._event_order)
            self._groups[event] = group
            self._event_order.append(event)
            self._reserve(events=index + 1)
        return index

    def _open_stack(self, state: _CPUState) -> str:
        """Render a CPU's open-region stack for error messages."""
        if not state.stack:
            return "<empty>"
        return " -> ".join(r.name for r in state.stack)

    # -- region lifecycle ---------------------------------------------------
    def enter(self, cpu: int, event: str, *, group: str = "TAU_DEFAULT") -> None:
        state = self._cpu(cpu)
        if self.trace is not None:
            self.trace.emit_many(T.ENTER, (cpu,), (state.clock_seconds,),
                                 event, {"group": (group,)})
        self._enter([state], state.column,
                    state.stack[-1] if state.stack else None, event, group)

    def enter_set(self, cpus, event: str, *, group: str = "TAU_DEFAULT") -> None:
        """:meth:`enter` ``event`` on each of the distinct ``cpus``."""
        cpu_set = self._set(cpus)
        parent = _lockstep_top(cpu_set.states)
        if parent is False:
            for cpu in cpus:
                self.enter(cpu, event, group=group)
            return
        if self.trace is not None:
            self.trace.emit_many(T.ENTER, cpus, self.clocks(cpus), event,
                                 {"group": [group] * len(cpus)})
        self._enter(cpu_set.states, cpu_set.cols, parent, event, group)

    def _enter(self, states: list[_CPUState], columns, parent, event: str,
               group: str) -> None:
        """Open ``event`` on ``states`` (at ``columns``), all under ``parent``."""
        index = self._register_event(event, group)
        if parent is not None:
            self._edges.add((parent.name, event))
            self._subrs[parent.event, columns] += 1.0
        path = None
        path_index = -1
        if self.callpaths:
            path = f"{parent.path or parent.name} => {event}" if parent else event
            if path != event:
                path_index = self._register_event(path, "TAU_CALLPATH")
                self._calls[path_index, columns] += 1.0
        region = _OpenRegion(event, index, path, path_index)
        for state in states:
            state.stack.append(region)
        depth = len(states[0].stack)
        if depth > self._open.shape[1]:
            self._reserve(depth=depth)
        self._open[columns, depth - 1] = 0.0
        if self._path_open is not None:
            self._path_open[columns, depth - 1] = 0.0
        self._calls[index, columns] += 1.0

    def exit(self, cpu: int, event: str) -> None:
        state = self._cpu(cpu)
        if not state.stack:
            raise MeasurementError(
                f"exit({event!r}) on cpu {cpu} with empty stack: "
                "no regions are open"
            )
        top = state.stack[-1]
        if top.name != event:
            raise MeasurementError(
                f"unbalanced regions on cpu {cpu}: exit({event!r}) while "
                f"{top.name!r} is innermost; open stack: "
                f"[{self._open_stack(state)}]"
            )
        if self.trace is not None:
            self.trace.emit_many(T.EXIT, (cpu,), (state.clock_seconds,), event)
        self._exit([state], state.column, top)

    def exit_set(self, cpus, event: str) -> None:
        """:meth:`exit` ``event`` on each of the distinct ``cpus``."""
        cpu_set = self._set(cpus)
        top = _lockstep_top(cpu_set.states)
        if not top or top.name != event:
            for cpu in cpus:
                self.exit(cpu, event)
            return
        if self.trace is not None:
            self.trace.emit_many(T.EXIT, cpus, self.clocks(cpus), event)
        self._exit(cpu_set.states, cpu_set.cols, top)

    def _exit(self, states: list[_CPUState], columns, top: _OpenRegion) -> None:
        """Close ``top``, the innermost region of ``states``."""
        for state in states:
            state.stack.pop()
        depth = len(states[0].stack)
        self._inclusive[top.event, columns] += self._open[columns, depth]
        if top.path_event >= 0:
            self._inclusive[top.path_event, columns] += (
                self._path_open[columns, depth])

    def charge(self, cpu: int, vector: CounterVector, *, _idle: bool = False) -> None:
        """Attribute ``vector`` to the CPU's innermost open region."""
        state = self._cpus.get(cpu)
        if state is None:
            state = self._cpu(cpu)
        if not state.stack:
            raise MeasurementError(
                f"charge on cpu {cpu} outside any region: no regions are open"
            )
        top = state.stack[-1]
        counters = vector.as_array()
        if len(counters) != self._width:
            counters = self._fit(counters)
        seconds = float(counters[_TIME]) / 1e6
        if self.trace is not None:
            attrs: dict = {"seconds": (seconds,), "idle": (_idle,)}
            if self.trace.record_charges:
                attrs["vector"] = np.array(counters, ndmin=2)
            self.trace.emit_many(T.CHARGE, (cpu,), (state.clock_seconds,),
                                 top.name, attrs)
        self._fold(top.event, top.path_event, state.column, len(state.stack),
                   counters)
        state.clock_seconds += seconds

    def _fold(self, event: int, path_event: int, columns, depth: int,
              counters: np.ndarray) -> None:
        """The accumulator update of a charge: ``counters`` lands on the
        exclusive cells of the innermost region (and its callpath event) and
        on the first ``depth`` open frames, of one column, or of ``columns``
        of CPUs in lockstep with one row each."""
        exclusive = self._exclusive[event, columns]
        frames = self._open[columns, :depth]
        per_frame = counters if counters.ndim == 1 else counters[:, None]
        exclusive += counters
        frames += per_frame
        if isinstance(columns, np.ndarray):  # fancy indexing gave copies
            self._exclusive[event, columns] = exclusive
            self._open[columns, :depth] = frames
        if self._path_open is not None:
            self._path_open[columns, :depth] += per_frame
            if path_event >= 0:
                self._exclusive[path_event, columns] += counters

    def charge_set(self, cpus, rows, *, _idle: bool = False) -> None:
        """Charge each counter row of ``rows[i]`` in order on ``cpus[i]``,
        as one :meth:`charge` per row; row counts may differ.  Step ``k``
        charges row ``k`` on every CPU that has one.  Rows are never summed
        first, which would reassociate the additions."""
        if not len(cpus):
            return
        cpu_set = self._set(cpus)
        states = cpu_set.states
        top = _lockstep_top(states)
        if not top:
            for cpu, block in zip(cpus, rows):
                for row in block:
                    self.charge(cpu, _wrap(row), _idle=_idle)
            return
        try:
            block = np.array(rows, dtype=float)
            lengths = None
        except ValueError:  # row counts differ: zero-pad to the longest
            lengths = np.array([len(r) for r in rows], dtype=np.intp)
            block = np.zeros((len(rows), lengths.max(),
                              max(r.shape[-1] for r in rows)))
            for i, r in enumerate(rows):
                block[i, :len(r), :r.shape[-1]] = r
        if block.shape[-1] != self._width:
            block = self._fit(block)
        depth = len(states[0].stack)
        clocks = np.array([s.clock_seconds for s in states])
        seconds = block[..., _TIME] / 1e6
        if block.shape[1] >= 8 * len(states):  # long and narrow: one pass
            ts, clocks = self._fold_block(top, cpu_set.cols, depth, block,
                                          lengths, clocks, seconds)
        else:
            ts = np.empty(seconds.shape)
            for k in range(block.shape[1]):
                live, cols = slice(None), cpu_set.cols
                if lengths is not None:
                    live = np.flatnonzero(lengths > k)
                    cols = cpu_set.columns[live]
                ts[live, k] = clocks[live]
                self._fold(top.event, top.path_event, cols, depth, block[live, k])
                clocks[live] += seconds[live, k]
        for state, clock in zip(states, clocks.tolist()):
            state.clock_seconds = clock
        if self.trace is not None:
            if lengths is None:  # every CPU charged every row
                counts, charged = block.shape[1], slice(None)
                block = block.reshape(-1, block.shape[-1])
            else:
                counts = lengths
                charged = np.arange(block.shape[1]) < lengths[:, None]
                block = block[charged]
            seconds = seconds[charged].ravel().tolist()
            attrs = {"seconds": seconds, "idle": [_idle] * len(seconds)}
            if self.trace.record_charges:
                attrs["vector"] = block
            self.trace.emit_many(T.CHARGE, np.repeat(cpus, counts).tolist(),
                                 ts[charged].ravel().tolist(), top.name, attrs)

    def _fold_block(self, top: _OpenRegion, cols, depth: int,
                    block: np.ndarray, lengths, clocks: np.ndarray,
                    seconds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The per-step :meth:`_fold` of ``block`` on ``cols`` (and the
        clock advance) in one pass: ``np.add.accumulate`` along the step
        axis adds each row to the running cell in order, the same left
        fold (``add.reduce`` would pair).  A CPU keeps the prefix at its
        own row count.  Returns the charge timestamps and final clocks."""
        n, steps = block.shape[:2]
        cells = [self._exclusive[top.event, cols][:, None], self._open[cols, :depth]]
        if self._path_open is not None:
            cells.append(self._path_open[cols, :depth])
            if top.path_event >= 0:
                cells.append(self._exclusive[top.path_event, cols][:, None])
        start = np.concatenate(cells, axis=1)
        folds = np.empty((n, steps + 1) + start.shape[1:])
        folds[:, 0] = start
        folds[:, 1:] = block[:, :, None]
        times = np.empty((n, steps + 1))
        times[:, 0] = clocks
        times[:, 1:] = seconds
        np.add.accumulate(folds, axis=1, out=folds)
        np.add.accumulate(times, axis=1, out=times)
        last = np.full(n, steps) if lengths is None else lengths
        final = folds[np.arange(n), last]
        self._exclusive[top.event, cols] = final[:, 0]
        self._open[cols, :depth] = final[:, 1:1 + depth]
        if self._path_open is not None:
            self._path_open[cols, :depth] = final[:, 1 + depth:1 + 2 * depth]
            if top.path_event >= 0:
                self._exclusive[top.path_event, cols] = final[:, -1]
        return times[:, :-1], times[np.arange(n), last]

    def leaf_set(self, cpus, event: str, row: np.ndarray, *,
                 group: str = "TAU_DEFAULT", _idle: bool = False) -> None:
        """:meth:`enter_set` ``event``, charge the counter ``row`` on
        each of ``cpus``, then :meth:`exit_set`: one leaf call per CPU, with
        the accumulator updates and trace blocks of those three steps."""
        cpu_set = self._set(cpus)
        parent = _lockstep_top(cpu_set.states)
        if parent is False:
            self.enter_set(cpus, event, group=group)
            self.charge_set(cpus, [row[None]] * len(cpus), _idle=_idle)
            self.exit_set(cpus, event)
            return
        states, cols = cpu_set.states, cpu_set.cols
        if len(row) != self._width:
            row = self._fit(row)
        seconds = float(row[_TIME]) / 1e6
        before = self.clocks(cpus) if self.trace is not None else None
        self._enter(states, cols, parent, event, group)
        top = states[0].stack[-1]
        self._fold(top.event, top.path_event, cols, len(states[0].stack), row)
        for state in states:
            state.clock_seconds += seconds
        self._exit(states, cols, top)
        if self.trace is not None:
            n = len(cpus)
            self.trace.emit_many(T.ENTER, cpus, before, event,
                                 {"group": [group] * n})
            attrs = {"seconds": [seconds] * n, "idle": [_idle] * n}
            if self.trace.record_charges:
                attrs["vector"] = row[None].repeat(n, axis=0)
            self.trace.emit_many(T.CHARGE, cpus, before, event, attrs)
            self.trace.emit_many(T.EXIT, cpus, self.clocks(cpus), event)

    def charge_idle_set(self, cpus, seconds) -> None:
        """:meth:`charge_idle` ``seconds[i]`` on ``cpus[i]``."""
        if min(seconds, default=0.0) < 0:
            raise MeasurementError("idle time must be non-negative")
        live = [(cpu, s) for cpu, s in zip(cpus, seconds) if s != 0]
        idle = {s: self.machine.processor.idle_vector(s).as_array()[None]
                for s in {s for _, s in live}}
        self.charge_set([cpu for cpu, _ in live],
                        [idle[s] for _, s in live], _idle=True)

    def add_calls(self, cpu: int, event: str, count: float) -> None:
        """Bump an event's call count without re-entering it.

        Used by analytical executors (e.g. the instrumented-IR runner) that
        execute a region once with its work scaled by the dynamic
        invocation count: the profile's ``calls`` column must still show
        the dynamic count.
        """
        if count < 0:
            raise MeasurementError("call count must be non-negative")
        index = self._event_index.get(event)
        if index is None:
            raise MeasurementError(f"unknown event {event!r}")
        if self.trace is not None:
            self.trace.emit(
                T.CALLS, cpu, self._cpu(cpu).clock_seconds, event,
                {"count": count},
            )
        self._calls[index, self._column(cpu)] += count

    def charge_idle(self, cpu: int, seconds: float) -> None:
        """Charge barrier/wait time: pure stall cycles, no useful work."""
        if seconds < 0:
            raise MeasurementError("idle time must be non-negative")
        if seconds == 0:
            return
        self.charge(cpu, self.machine.processor.idle_vector(seconds), _idle=True)

    # -- virtual time ---------------------------------------------------------
    def clock(self, cpu: int) -> float:
        """The CPU's virtual wall clock in seconds."""
        return self._cpu(cpu).clock_seconds

    def clocks(self, cpus) -> list[float]:
        """The virtual wall clocks of distinct ``cpus``, in seconds."""
        return [s.clock_seconds for s in self._set(cpus).states]

    def advance_clock_to(self, cpu: int, t_seconds: float) -> float:
        """Idle-spin the CPU forward to ``t_seconds`` (no-op if already
        past); returns the idle seconds charged."""
        state = self._cpu(cpu)
        gap = t_seconds - state.clock_seconds
        if gap <= 0:
            return 0.0
        self.charge_idle(cpu, gap)
        return gap

    def advance_set(self, cpus, targets) -> None:
        """:meth:`advance_clock_to` ``targets[i]`` on ``cpus[i]``."""
        gaps = [(cpu, t - s.clock_seconds)
                for cpu, t, s in zip(cpus, targets, self._set(cpus).states)]
        live = [(cpu, gap) for cpu, gap in gaps if gap > 0]
        self.charge_idle_set([cpu for cpu, _ in live], [gap for _, gap in live])

    def lockstep(self, cpus, keys=None):
        """Context in which the trace records the ``*_set`` steps' events
        CPU by CPU in the order of ``cpus``, as a loop over them would, or
        in the order of their ``keys`` (see :meth:`EventTrace.lockstep
        <repro.runtime.trace.EventTrace.lockstep>`)."""
        if self.trace is None:
            return nullcontext()
        return self.trace.lockstep(cpus, keys)

    # -- phases -----------------------------------------------------------
    def phase(self, label: str) -> None:
        """Mark an application phase boundary (iteration end, stage change).

        On the base profiler this only records a ``PHASE`` event in the
        attached trace (no-op without one); :class:`SnapshotProfiler
        <repro.runtime.snapshot.SnapshotProfiler>` overrides it to also cut
        an interval profile snapshot.  Applications should call it at
        globally synchronized points (after a barrier/allreduce/implicit
        loop barrier) so interval profiles are well-defined.
        """
        index = self._phase_count
        self._phase_count += 1
        if self.trace is not None:
            ts = max(
                (s.clock_seconds for s in self._cpus.values()), default=0.0
            )
            self.trace.phase(label, ts, index=index)

    # -- output -----------------------------------------------------------
    def to_trial(
        self, name: str, metadata: Mapping | None = None, *, validate: bool = True
    ) -> Trial:
        """Materialize the accumulated measurements as a PerfDMF trial."""
        for cpu, state in self._cpus.items():
            if state.stack:
                raise MeasurementError(
                    f"cpu {cpu} still has open regions: "
                    f"[{self._open_stack(state)}]"
                )
        cpus = sorted(self._cpus)
        if not cpus:
            raise MeasurementError("profiler saw no activity")
        return self._materialize(
            name, metadata,
            exclusive=self._exclusive, inclusive=self._inclusive,
            calls=self._calls, subrs=self._subrs,
            cpus=cpus, validate=validate,
        )

    def _materialize(
        self,
        name: str,
        metadata: Mapping | None,
        *,
        exclusive: np.ndarray,
        inclusive: np.ndarray,
        calls: np.ndarray,
        subrs: np.ndarray,
        cpus: list[int],
        validate: bool = True,
    ) -> Trial:
        """Build a trial from ``(event, cpu column[, slot])`` arrays — the
        whole-run accumulators for ``to_trial``, or interval deltas for
        :class:`~repro.runtime.snapshot.SnapshotProfiler`."""
        events = list(self._event_order)
        n_e = len(events)
        exclusive, inclusive = exclusive[:n_e], inclusive[:n_e]
        present = np.flatnonzero(
            exclusive.any(axis=(0, 1)) | inclusive.any(axis=(0, 1))
        ).tolist()
        # Stable, readable order: TIME first, then the canonical counter
        # order, then anything else by name.
        n_canon = len(C.ALL_COUNTERS)
        slots = [s for s in present if s < n_canon] + sorted(
            (s for s in present if s >= n_canon), key=counter_name
        )

        meta = dict(metadata or {})
        meta.setdefault("callgraph", sorted([list(e) for e in self._edges]))
        meta.update(self.machine.metadata())

        columns = [self._columns[cpu] for cpu in cpus]
        exclusive = exclusive[:, columns]
        inclusive = inclusive[:, columns]
        trial = Trial.from_arrays(
            name, meta,
            [Event(ev, self._groups[ev]) for ev in events],
            [ThreadId(self.machine.node_of_cpu(cpu), 0, cpu) for cpu in cpus],
            [Metric(counter_name(slot), "usec" if slot == _TIME else "counts")
             for slot in slots],
            [exclusive[:, :, slot] for slot in slots],
            [inclusive[:, :, slot] for slot in slots],
            calls[:n_e][:, columns], subrs[:n_e][:, columns],
        )
        if validate:
            trial.validate()
        return trial
