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

from typing import Mapping

import numpy as np

from ..machine import CounterVector, Machine
from ..machine import counters as C
from ..machine.counters import _wrap, counter_name, counter_width, widen
from ..perfdmf import Trial, TrialBuilder
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
    """One CPU's open regions and virtual clock.

    ``open[d]`` accumulates the inclusive counters of the region open at
    depth ``d``, and ``frames`` is the view of the rows in use, so one
    in-place add charges every open region at once.  ``path_open`` does the
    same for callpath events (callpath mode only).
    """

    __slots__ = ("stack", "clock_seconds", "column", "open", "frames",
                 "path_open", "path_frames")

    def __init__(self, column: int, width: int, callpaths: bool) -> None:
        self.stack: list[_OpenRegion] = []
        self.clock_seconds: float = 0.0
        #: Column of this CPU in the profiler's accumulators.
        self.column = column
        self.open = np.zeros((4, width))
        self.path_open = np.zeros((4, width)) if callpaths else None
        self._view()

    def _view(self) -> None:
        depth = len(self.stack)
        self.frames = self.open[:depth]
        if self.path_open is not None:
            self.path_frames = self.path_open[:depth]

    def push(self, region: _OpenRegion) -> None:
        self.stack.append(region)
        depth = len(self.stack)
        if depth > len(self.open):
            self.resize(2 * depth, self.open.shape[1])
        self.open[depth - 1] = 0.0
        if self.path_open is not None:
            self.path_open[depth - 1] = 0.0
        self._view()

    def pop(self) -> None:
        self.stack.pop()
        self._view()

    def resize(self, depth: int, width: int) -> None:
        self.open = _resized(self.open, (depth, width))
        if self.path_open is not None:
            self.path_open = _resized(self.path_open, (depth, width))
        self._view()


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
    dictionary of counter vectors would hold.
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
        self._groups: dict[str, str] = {}
        self._event_index: dict[str, int] = {}
        self._edges: set[tuple[str, str]] = set()
        self._event_order: list[str] = []
        self._phase_count = 0

    def _reserve(self, events: int = 0, columns: int = 0, width: int = 0) -> None:
        """Grow the accumulators to hold at least the given extents."""
        e, c, w = self._exclusive.shape
        shape = (_grown(e, events), _grown(c, columns), max(w, width))
        if shape != (e, c, w):
            self._exclusive = _resized(self._exclusive, shape)
            self._inclusive = _resized(self._inclusive, shape)
            self._calls = _resized(self._calls, shape[:2])
            self._subrs = _resized(self._subrs, shape[:2])

    def _ensure_width(self, width: int) -> None:
        """Make room for counter slots registered since construction."""
        if width > self._width:
            self._width = width
            self._reserve(width=width)
            for state in self._cpus.values():
                state.resize(len(state.open), width)

    def _fit(self, counters: np.ndarray) -> np.ndarray:
        if len(counters) < self._width:
            return widen(counters, self._width)
        self._ensure_width(len(counters))
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
            state = self._cpus[cpu] = _CPUState(
                self._column(cpu), self._width, self.callpaths
            )
        return state

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
        index = self._register_event(event, group)
        if self.trace is not None:
            self.trace.emit(
                T.ENTER, cpu, state.clock_seconds, event, {"group": group}
            )
        column = state.column
        path = None
        path_index = -1
        if state.stack:
            parent = state.stack[-1]
            self._edges.add((parent.name, event))
            self._subrs[parent.event, column] += 1.0
        if self.callpaths:
            if state.stack:
                parent_path = state.stack[-1].path or state.stack[-1].name
                path = f"{parent_path} => {event}"
            else:
                path = event
            if path != event:
                path_index = self._register_event(path, "TAU_CALLPATH")
                self._calls[path_index, column] += 1.0
        state.push(_OpenRegion(event, index, path, path_index))
        self._calls[index, column] += 1.0

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
        state.pop()
        if self.trace is not None:
            self.trace.emit(T.EXIT, cpu, state.clock_seconds, event)
        depth = len(state.stack)
        self._inclusive[top.event, state.column] += state.open[depth]
        if top.path_event >= 0:
            self._inclusive[top.path_event, state.column] += state.path_open[depth]

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
            attrs: dict = {"seconds": seconds, "idle": _idle}
            if self.trace.record_charges:
                attrs["vector"] = vector.copy()
            self.trace.emit(T.CHARGE, cpu, state.clock_seconds, top.name, attrs)
        self._exclusive[top.event, state.column] += counters
        if top.path_event >= 0:
            self._exclusive[top.path_event, state.column] += counters
        state.frames += counters
        if state.path_open is not None:
            state.path_frames += counters
        state.clock_seconds += seconds

    def charge_rows(self, cpu: int, rows: np.ndarray) -> None:
        """Charge each counter row of ``rows`` in order, as one
        :meth:`charge` per row: rows are never summed first, which would
        reassociate the additions."""
        for row in rows:
            self.charge(cpu, _wrap(row))

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

    def advance_clock_to(self, cpu: int, t_seconds: float) -> float:
        """Idle-spin the CPU forward to ``t_seconds`` (no-op if already
        past); returns the idle seconds charged."""
        state = self._cpu(cpu)
        gap = t_seconds - state.clock_seconds
        if gap <= 0:
            return 0.0
        self.charge_idle(cpu, gap)
        return gap

    def open_depth(self, cpu: int) -> int:
        return len(self._cpu(cpu).stack)

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
    @property
    def callgraph_edges(self) -> set[tuple[str, str]]:
        return set(self._edges)

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

        builder = TrialBuilder(name, meta)
        for ev in events:
            builder._trial.add_event(ev, self._groups[ev])
        builder._trial.add_threads(
            (self.machine.node_of_cpu(cpu), 0, cpu) for cpu in cpus
        )
        columns = [self._columns[cpu] for cpu in cpus]
        exclusive = exclusive[:, columns]
        inclusive = inclusive[:, columns]
        for slot in slots:
            metric = counter_name(slot)
            exc, inc = exclusive[:, :, slot], inclusive[:, :, slot]
            units = "usec" if metric == C.TIME else "counts"
            builder.with_metric(metric, exc, inc, units=units)
        calls_arr = calls[:n_e][:, columns]
        subrs_arr = subrs[:n_e][:, columns]
        builder.with_calls(calls_arr, subrs_arr)
        return builder.build(validate=validate)
