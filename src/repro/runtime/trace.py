"""Event-trace recording for the simulated measurement runtime.

TAU can run in *tracing* mode instead of (or alongside) profiling mode: every
region entry/exit and message event is logged with a timestamp, and tools
downstream reduce the trace back to profiles, detect wait states, or render
timelines.  This module is that mode for the simulated runtime.

An :class:`EventTrace` is an append-only log stored **columnar**
(struct-of-arrays): parallel lists of kind codes, cpus, timestamps, interned
name ids, and attribute payloads.  :meth:`EventTrace.columns` exposes the
numeric columns as numpy arrays for the vectorized analysis kernels in
:mod:`repro.core.operations.tracing`; the classic record view
(``trace.events``, iteration, indexing) materializes :class:`TraceEvent`
objects lazily, so existing per-event consumers keep working unchanged.

The :class:`~repro.runtime.tau.Profiler` emits ``ENTER``/``EXIT``/``CHARGE``/
``CALLS`` events when a trace is attached (``Profiler(machine, trace=...)``);
the MPI and OpenMP simulators add communication and fork/join/barrier events
with partners, byte counts, and arrival/release times.  Timestamps are the
per-CPU *virtual* clocks the simulators advance, in seconds.

Because ``CHARGE`` events carry the exact :class:`CounterVector` that was
charged, a trace is a complete replay log: feeding it back through a fresh
profiler (``repro.core.operations.TraceToProfileOperation`` /
:func:`replay_trace`) reproduces the original accounting bit-for-bit.

When no trace is attached the hooks cost a single attribute check — tracing
off stays within noise of the untraced runtime (see
``benchmarks/test_trace_overhead.py``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from itertools import repeat
from typing import Any, Iterator, Sequence

import numpy as np

from ..machine.counters import counter_name, widen

__all__ = [
    "TraceEvent",
    "EventTrace",
    # event kinds
    "ENTER", "EXIT", "CHARGE", "CALLS",
    "SEND", "RECV", "WAIT", "COLLECTIVE",
    "FORK", "JOIN", "BARRIER", "PHASE",
    "REGION_KINDS", "MPI_KINDS", "OPENMP_KINDS",
    "KIND_CODES", "KIND_NAMES",
]

# -- event kinds -----------------------------------------------------------
#: Region entry on a CPU (``name`` = event, ``attrs["group"]`` = TAU group).
ENTER = "enter"
#: Region exit on a CPU.
EXIT = "exit"
#: A counter vector charged to the innermost open region
#: (``attrs["vector"]``, ``attrs["seconds"]``, ``attrs["idle"]``).
CHARGE = "charge"
#: Out-of-band call-count bump (``attrs["count"]``).
CALLS = "calls"
#: Nonblocking send posted (``attrs``: rank, dest, bytes, tag, ready_at,
#: msg_id — ready_at is when the payload lands at the receiver).
SEND = "send"
#: Nonblocking receive posted (``attrs``: rank, source, tag, bytes, req_id).
RECV = "recv"
#: A wait/waitall interval (``attrs``: rank, start, end, requests=[...]).
WAIT = "wait"
#: One rank's participation in a collective (``attrs``: rank, arrive,
#: release, seq — seq groups the participants of one collective call).
COLLECTIVE = "collective"
#: OpenMP parallel-region fork on one thread.
FORK = "fork"
#: OpenMP parallel-region join on one thread.
JOIN = "join"
#: One thread's arrival at an OpenMP barrier (``attrs``: arrive, release,
#: thread, seq).
BARRIER = "barrier"
#: Application phase mark (snapshot cut / iteration boundary); ``cpu`` is -1
#: because the mark is global.
PHASE = "phase"

REGION_KINDS = frozenset({ENTER, EXIT, CHARGE, CALLS})
MPI_KINDS = frozenset({SEND, RECV, WAIT, COLLECTIVE})
OPENMP_KINDS = frozenset({FORK, JOIN, BARRIER})

#: Columnar encoding of event kinds: ``KIND_NAMES[code]`` ↔ ``KIND_CODES[kind]``.
KIND_NAMES: tuple[str, ...] = (
    ENTER, EXIT, CHARGE, CALLS,
    SEND, RECV, WAIT, COLLECTIVE,
    FORK, JOIN, BARRIER, PHASE,
)
KIND_CODES: dict[str, int] = {k: i for i, k in enumerate(KIND_NAMES)}


class TraceEvent:
    """One timestamped record in an event trace.

    ``ts`` is the virtual wall clock of ``cpu`` when the event was recorded,
    in seconds.  ``attrs`` holds kind-specific payload (documented on the
    kind constants above); it is ``None`` for attribute-free events to keep
    records small.
    """

    __slots__ = ("kind", "cpu", "ts", "name", "attrs")

    def __init__(
        self,
        kind: str,
        cpu: int,
        ts: float,
        name: str,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.kind = kind
        self.cpu = cpu
        self.ts = ts
        self.name = name
        self.attrs = attrs

    def get(self, key: str, default: Any = None) -> Any:
        return default if self.attrs is None else self.attrs.get(key, default)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form; counter vectors become plain dicts."""
        rec: dict[str, Any] = {
            "kind": self.kind, "cpu": self.cpu, "ts": self.ts, "name": self.name,
        }
        if self.attrs:
            attrs = dict(self.attrs)
            vec = attrs.get("vector")
            if vec is not None and hasattr(vec, "as_dict"):
                attrs["vector"] = vec.as_dict()
            rec["attrs"] = attrs
        return rec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" {self.attrs}" if self.attrs else ""
        return (
            f"TraceEvent({self.kind} cpu={self.cpu} ts={self.ts:.9f} "
            f"{self.name!r}{extra})"
        )


class _EventsView:
    """Read-only sequence of :class:`TraceEvent`, materialized on access.

    Keeps ``trace.events`` (iteration, ``len``, indexing, slicing) working
    against the columnar store without holding a second copy of the trace.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "EventTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._kinds)

    def __iter__(self) -> Iterator[TraceEvent]:
        t = self._trace
        names = t._names
        for kind, cpu, ts, nid, attrs in zip(
            t._kinds, t._cpus, t._ts, t._name_ids, t._attrs
        ):
            yield TraceEvent(KIND_NAMES[kind], cpu, ts, names[nid], attrs)

    def __getitem__(self, index):
        t = self._trace
        if isinstance(index, slice):
            return [
                t.event_at(i) for i in range(*index.indices(len(t._kinds)))
            ]
        return t.event_at(index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EventsView of {len(self)} events>"


class EventTrace:
    """Append-only columnar timeline of trace events.

    Parameters
    ----------
    record_charges:
        When True (default), ``CHARGE`` events keep a reference to the
        charged :class:`CounterVector` so the trace is a complete replay
        log.  Turn off to halve memory when only the timeline structure
        (regions, messages, barriers) matters.
    """

    def __init__(self, *, record_charges: bool = True) -> None:
        self.record_charges = record_charges
        # struct-of-arrays backing: one entry per event in each column
        self._kinds: list[int] = []
        self._cpus: list[int] = []
        self._ts: list[float] = []
        self._name_ids: list[int] = []
        self._attrs: list[dict[str, Any] | None] = []
        # interning table: name id → string, string → name id
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        # cached numpy conversion of the numeric columns
        self._columns: dict[str, Any] | None = None
        self._columns_len = -1
        self._charge_cols: dict[str, Any] | None = None
        self._charge_cols_len = -1
        # inside lockstep(): the held-back (kind code, cpu, ts, name, attrs)
        # events and each one's CPU key, reordered when the step ends
        self._step: tuple[list, list, dict[int, int]] | None = None

    # -- recording ---------------------------------------------------------
    def emit(
        self,
        kind: str,
        cpu: int,
        ts: float,
        name: str,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        if self._step is not None:
            return self.emit_many(kind, [cpu], [ts], name, [attrs])
        nid = self._name_index.get(name)
        if nid is None:
            nid = len(self._names)
            self._name_index[name] = nid
            self._names.append(name)
        self._kinds.append(KIND_CODES[kind])
        self._cpus.append(cpu)
        self._ts.append(ts)
        self._name_ids.append(nid)
        self._attrs.append(attrs)

    def emit_many(self, kind: str, cpus: Sequence[int], ts: Sequence[float],
                  name: str, attrs: Sequence[dict | None] | None = None) -> None:
        """:meth:`emit` one ``kind`` event named ``name`` per entry of
        ``cpus``, at the matching ``ts``, with one payload each."""
        n = len(cpus)
        columns = ([KIND_CODES[kind]] * n, cpus, ts, [name] * n,
                   [None] * n if attrs is None else attrs)
        if self._step is not None:
            events, held, key_of = self._step
            events.extend(zip(*columns))
            held.extend(map(key_of.get, cpus, repeat(sys.maxsize)))
        else:
            self._append(*columns)

    def _append(self, codes, cpus, ts, names, attrs) -> None:
        """Bulk :meth:`emit` of already-coded events."""
        index = self._name_index
        for name in dict.fromkeys(names):
            if name not in index:
                index[name] = len(self._names)
                self._names.append(name)
        self._name_ids.extend(map(index.__getitem__, names))
        self._kinds.extend(codes)
        self._cpus.extend(cpus)
        self._ts.extend(ts)
        self._attrs.extend(attrs)

    @contextmanager
    def lockstep(self, cpus: Sequence[int], keys: Sequence[int] | None = None):
        """Hold back the events emitted inside, then record them by their
        CPU's key, ``keys[i]`` for ``cpus[i]`` (each CPU's in emission
        order; other CPUs' last).  The default key, a CPU's position in
        ``cpus``, gives what a loop over the CPUs records when a step runs
        them all at once.  Nested steps join the outer one, and a nested
        step's ``keys`` replace its CPUs' keys there."""
        if self._step is not None:
            if keys is not None:
                self._step[2].update(zip(cpus, keys))
            yield
            return
        events: list = []
        held: list[int] = []
        self._step = (events, held, dict(zip(
            cpus, range(len(cpus)) if keys is None else keys)))
        try:
            yield
        finally:
            self._step = None
            order = np.argsort(np.array(held, dtype=np.intp), kind="stable")
            if events:
                self._append(*map(list, zip(*[events[i] for i in order])))

    def phase(self, label: str, ts: float, *, index: int | None = None) -> None:
        """Record a global phase mark (iteration/snapshot boundary)."""
        attrs = {"index": index} if index is not None else None
        self.emit(PHASE, -1, ts, label, attrs)

    # -- columnar access ---------------------------------------------------
    def columns(self) -> dict[str, Any]:
        """Numeric columns as numpy arrays (cached until the next append).

        Keys: ``kind`` (int16 codes per :data:`KIND_CODES`), ``cpu``
        (int64), ``ts`` (float64), ``name_id`` (int64, decode via
        :meth:`name_table`).  Attribute payloads stay in :meth:`attrs_column`
        — they hold arbitrary objects (counter vectors, request lists).
        """
        n = len(self._kinds)
        if self._columns is None or self._columns_len != n:
            self._columns = {
                "kind": np.asarray(self._kinds, dtype=np.int16),
                "cpu": np.asarray(self._cpus, dtype=np.int64),
                "ts": np.asarray(self._ts, dtype=np.float64),
                "name_id": np.asarray(self._name_ids, dtype=np.int64),
            }
            self._columns_len = n
        return self._columns

    def attrs_column(self) -> list[dict[str, Any] | None]:
        """The attribute payload column (shared, do not mutate)."""
        return self._attrs

    def charge_columns(self) -> dict[str, Any]:
        """Charge payloads per counter: ``{counter: (rows, values)}``.

        ``rows`` is an int64 array of global row indices (ascending — emit
        order) of the ``CHARGE`` events whose vector contained ``counter``
        (held it nonzero); ``values`` is the matching float64 array, sliced
        from the recorded vectors' slot arrays.  Kernels may pull values
        back out (``.tolist()``) and fold them sequentially without
        perturbing the bitwise replay guarantee.  Counters appear in slot
        order.  Cached until the next append.
        """
        n = len(self._kinds)
        if self._charge_cols is None or self._charge_cols_len != n:
            self._charge_cols = {}
            charge, attrs = KIND_CODES[CHARGE], self._attrs
            charges = [i for i, code in enumerate(self._kinds) if code == charge]
            recorded = [(i, attrs[i]["vector"]) for i in charges
                        if attrs[i] and attrs[i].get("vector") is not None]
            self._charges_recorded = len(recorded) == len(charges)
            if recorded:
                arrays = [vec.as_array() for _, vec in recorded]
                width = max(map(len, arrays))
                dense = np.stack([widen(a, width) for a in arrays])
                rows = np.asarray([i for i, _ in recorded], dtype=np.int64)
                nonzero = dense != 0.0
                for slot in np.flatnonzero(nonzero.any(axis=0)).tolist():
                    mask = nonzero[:, slot]
                    self._charge_cols[counter_name(slot)] = (
                        rows[mask], dense[mask, slot]
                    )
            self._charge_cols_len = n
        return self._charge_cols

    @property
    def charges_fully_recorded(self) -> bool:
        """True when every ``CHARGE`` event carried its counter vector
        (i.e. the trace is a complete replay log)."""
        self.charge_columns()
        return self._charges_recorded

    def name_table(self) -> list[str]:
        """Interned names, indexed by name id (shared, do not mutate)."""
        return self._names

    def event_at(self, index: int) -> TraceEvent:
        """Materialize one event record."""
        return TraceEvent(
            KIND_NAMES[self._kinds[index]],
            self._cpus[index],
            self._ts[index],
            self._names[self._name_ids[index]],
            self._attrs[index],
        )

    # -- record-oriented access --------------------------------------------
    @property
    def events(self) -> _EventsView:
        """Lazy record view (`TraceEvent` objects built on demand)."""
        return _EventsView(self)

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def cpu_ids(self) -> list[int]:
        """CPUs that appear in the trace, sorted (PHASE's -1 excluded)."""
        return sorted(c for c in set(self._cpus) if c >= 0)

    def final_clocks(self) -> dict[int, float]:
        """Last observed timestamp per CPU — the virtual clock at the end
        of the run (CHARGE events carry pre-charge timestamps, so their
        ``ts + seconds`` end time counts too)."""
        if not self._kinds:
            return {}
        cols = self.columns()
        end = cols["ts"]
        charge_rows = np.nonzero(cols["kind"] == KIND_CODES[CHARGE])[0]
        if len(charge_rows):
            end = end.copy()
            attrs = self._attrs
            for i in charge_rows.tolist():
                a = attrs[i]
                if a:
                    end[i] += a.get("seconds", 0.0)
        clocks: dict[int, float] = {}
        cpus = cols["cpu"]
        valid = cpus >= 0
        for cpu in set(cpus[valid].tolist()):
            t = float(np.max(end[cpus == cpu]))
            if t > 0.0:
                clocks[cpu] = t
        return clocks

    def duration(self) -> float:
        """Trace makespan in seconds (max final clock over CPUs)."""
        clocks = self.final_clocks()
        return max(clocks.values()) if clocks else 0.0

    def rank_of_cpu(self) -> dict[int, int]:
        """cpu → MPI rank mapping recovered from communication events."""
        mpi_codes = {KIND_CODES[k] for k in MPI_KINDS}
        mapping: dict[int, int] = {}
        for code, cpu, attrs in zip(self._kinds, self._cpus, self._attrs):
            if code in mpi_codes and attrs and "rank" in attrs:
                mapping.setdefault(cpu, attrs["rank"])
        return mapping
