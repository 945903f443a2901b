"""Event-trace recording for the simulated measurement runtime.

TAU can run in *tracing* mode instead of (or alongside) profiling mode: every
region entry/exit and message event is logged with a timestamp, and tools
downstream reduce the trace back to profiles, detect wait states, or render
timelines.  This module is that mode for the simulated runtime.

An :class:`EventTrace` is an append-only log of **blocks**: one
:meth:`~EventTrace.emit_many` call records one block of events of one kind
and name, as a CPU list, a timestamp list and a payload of per-event
columns, one per attrs key: the profiler records a ``CHARGE`` block's
seconds, idle flags and ``(rows, counter slots)`` charge matrix, and the
MPI runtime its ranks, partners, bytes, tags, request ids and times.  Inside
:meth:`~EventTrace.lockstep` the blocks are held back and keyed by CPU; one
stable sort orders a step's events when the trace is read, as a loop over
the CPUs would have recorded them.

Reads flatten the committed blocks once per append: :meth:`~EventTrace.columns`
gives the kind, CPU, timestamp and name-id columns as numpy arrays,
:meth:`~EventTrace.charge_columns` and :meth:`~EventTrace.final_clocks` read
the charge payloads straight from the blocks, and
:meth:`~EventTrace.kind_columns` and :meth:`~EventTrace.request_columns`
give one kind's payload fields in trace order for the analysis kernels in
:mod:`repro.core.operations.tracing`.  The record view (``trace.events``,
:meth:`~EventTrace.attrs_column`, :meth:`~EventTrace.event_at`) builds the
attrs dicts and :class:`TraceEvent` objects only when it is read.

The :class:`~repro.runtime.tau.Profiler` records ``ENTER``/``EXIT``/``CHARGE``/
``CALLS`` events when a trace is attached (``Profiler(machine, trace=...)``);
the MPI and OpenMP simulators add communication and fork/join/barrier events
with partners, byte counts, and arrival/release times.  Timestamps are the
per-CPU *virtual* clocks the simulators advance, in seconds.

Because ``CHARGE`` events carry the exact counter rows that were charged, a
trace is a complete replay log: feeding it back through a fresh profiler
(``repro.core.operations.TraceToProfileOperation`` / :func:`replay_trace`)
reproduces the original accounting bit-for-bit.

When no trace is attached the hooks cost a single attribute check — tracing
off stays within noise of the untraced runtime (see
``benchmarks/test_trace_overhead.py``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Any, Iterator, Sequence

import numpy as np

from ..machine.counters import _wrap, counter_name, widen

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
#: A counter row charged to the innermost open region (``attrs``: seconds,
#: idle, and vector — the charged :class:`CounterVector`, present when the
#: trace records charges).
CHARGE = "charge"
#: Out-of-band call-count bump (``attrs["count"]``).
CALLS = "calls"
#: Nonblocking send posted (``attrs``: rank, dest, bytes, tag, ready_at,
#: req_id — ready_at is when the payload lands at the receiver).
SEND = "send"
#: Nonblocking receive posted (``attrs``: rank, source, bytes, tag, req_id).
RECV = "recv"
#: A wait/waitall interval (``attrs``: rank, start, end, requests — one
#: dict per request: kind, partner, bytes, tag, ready_at, posted_at, req_id).
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

#: The request attrs keys of a ``WAIT`` event, and their reader from a
#: :class:`~repro.runtime.mpi.Request` handle, in the same order.
_REQUEST_KEYS = ("kind", "partner", "bytes", "tag", "ready_at", "posted_at",
                 "req_id")
_request_values = attrgetter("kind", "partner", "nbytes", "tag", "complete_at",
                             "posted_at", "id")


def _column(payload, n: int, key: str, default: Any = None) -> list:
    """Attrs field ``key`` of a block's ``n`` events (``default`` where the
    block has none); a ``vector`` column gives counter vectors and a
    ``requests`` column request handles."""
    column = None if payload is None else payload.get(key)
    if column is None:
        return [default] * n
    if key == "vector":
        return list(map(_wrap, column))
    return column.tolist() if isinstance(column, np.ndarray) else column


def _block_attrs(payload, n: int) -> list[dict[str, Any] | None]:
    """The attrs dicts of a block's ``n`` events, built from its columns."""
    if payload is None:
        return [None] * n
    columns = []
    for key in payload:
        column = _column(payload, n, key)
        if key == "requests":
            column = [[dict(zip(_REQUEST_KEYS, _request_values(q)))
                       for q in reqs] for reqs in column]
        columns.append(column)
    return [dict(zip(payload, values)) for values in zip(*columns)]


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
    against the block store without holding a second copy of the trace.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "EventTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __iter__(self) -> Iterator[TraceEvent]:
        t = self._trace
        cols, names = t.columns(), t.name_table()
        for kind, cpu, ts, nid, attrs in zip(
            cols["kind"].tolist(), cols["cpu"].tolist(), cols["ts"].tolist(),
            cols["name_id"].tolist(), t.attrs_column(),
        ):
            yield TraceEvent(KIND_NAMES[kind], cpu, ts, names[nid], attrs)

    def __getitem__(self, index):
        t = self._trace
        if isinstance(index, slice):
            return [t.event_at(i) for i in range(*index.indices(len(t)))]
        return t.event_at(index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EventsView of {len(self)} events>"


class _Flat:
    """The committed blocks flattened into trace order, with what reads
    derive from them (built once per append)."""

    def __init__(self, blocks: list[tuple]) -> None:
        self.blocks = blocks
        codes, cpus, ts, names, segments, keys = (
            list(map(itemgetter(i), blocks)) for i in (0, 1, 2, 3, 5, 6))
        lengths = np.fromiter(map(len, cpus), np.intp, len(blocks))
        self.starts = np.concatenate([[0], np.cumsum(lengths)])
        self.n = n = int(self.starts[-1])
        self.block_kind = np.array(codes, dtype=np.int16)
        self.cpu = np.fromiter(chain.from_iterable(cpus), np.int64, n)
        self.ts = np.fromiter(chain.from_iterable(ts), np.float64, n)
        # one stable sort: segment (a step or a block outside any), then
        # the CPU keys the step gave; blocks outside steps need no key
        stepped = np.array([k is not None for k in keys], dtype=bool)
        if stepped.any():
            key = np.zeros(n, dtype=np.int64)
            key[np.repeat(stepped, lengths)] = np.fromiter(
                chain.from_iterable(k for k in keys if k is not None), np.int64)
            segment = np.repeat(np.array(segments, dtype=np.int64), lengths)
            self.perm = perm = np.lexsort((key, segment))
        else:
            self.perm = perm = np.arange(n)
        self.inv = np.empty(n, dtype=np.intp)
        self.inv[perm] = np.arange(n)
        # names are numbered in order of first appearance in the trace
        index = {name: i for i, name in enumerate(dict.fromkeys(names))}
        block_names = np.fromiter(map(index.__getitem__, names), np.int64,
                                  len(blocks))
        live = np.flatnonzero(lengths)
        if len(live):  # blocks by their first event's place in the trace
            live = live[np.argsort(np.minimum.reduceat(self.inv,
                                                       self.starts[live]))]
        seen, first = np.unique(block_names[live], return_index=True)
        order = seen[np.argsort(first)]
        renumber = np.zeros(len(index), dtype=np.int64)
        renumber[order] = np.arange(len(order))
        by_code = list(index)
        self.names = [by_code[c] for c in order.tolist()]
        self.kind = np.repeat(self.block_kind, lengths)
        self.columns = {
            "kind": self.kind[perm],
            "cpu": self.cpu[perm],
            "ts": self.ts[perm],
            "name_id": np.repeat(renumber[block_names], lengths)[perm],
        }
        self.attrs: list | None = None
        self.charges: dict | None = None
        self.charges_recorded = True

    def of_kinds(self, codes) -> Iterator[tuple[tuple, np.ndarray]]:
        """Each block of the kind ``codes``, in recording order, and its
        events' trace rows."""
        starts = self.starts.tolist()
        for i in np.flatnonzero(np.isin(self.block_kind, list(codes))).tolist():
            yield self.blocks[i], self.inv[starts[i]:starts[i + 1]]


class EventTrace:
    """Append-only timeline of trace events, stored as blocks.

    Parameters
    ----------
    record_charges:
        When True (default), ``CHARGE`` blocks keep the charged counter
        rows as a matrix, so the trace is a complete replay log.  Turn off
        when only the timeline structure (regions, messages, barriers and
        charge seconds) matters: the blocks then hold no counter rows and
        replay raises.
    """

    def __init__(self, *, record_charges: bool = True) -> None:
        self.record_charges = record_charges
        # (kind code, cpus, ts, name, payload, segment, CPU keys) per
        # block; the first ``_committed`` are read, later ones belong to
        # the open step
        self._blocks: list[tuple] = []
        self._committed = 0
        self._n = 0
        self._segment = 0
        # inside lockstep(): [key per CPU, events held back]
        self._step: list | None = None
        self._flat_cache: _Flat | None = None

    # -- recording ---------------------------------------------------------
    def emit(
        self,
        kind: str,
        cpu: int,
        ts: float,
        name: str,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        """Record one event with the payload ``attrs`` (see the kinds;
        counter rows go through :meth:`emit_many`)."""
        self._record(KIND_CODES[kind], (cpu,), (ts,), name, None if attrs is None
                     else {key: (value,) for key, value in attrs.items()})

    def emit_many(self, kind: str, cpus: Sequence[int], ts: Sequence[float],
                  name: str, attrs: dict[str, Sequence] | None = None) -> None:
        """Record one block: a ``kind`` event named ``name`` on each of
        ``cpus``, at the matching ``ts``.  ``attrs`` holds one column per
        attrs key, one entry per event, from which the payloads are built
        when read: a ``vector`` column is a ``(events, slots)`` matrix of
        counter rows, a ``requests`` column each event's
        :class:`~repro.runtime.mpi.Request` handles.  The block keeps
        copies of ``cpus`` and ``ts``."""
        self._record(KIND_CODES[kind], tuple(cpus), tuple(ts), name, attrs)

    def _record(self, code: int, cpus: tuple, ts: tuple, name: str,
                payload: dict | None) -> None:
        step = self._step
        if step is None:
            self._segment += 1
            self._blocks.append((code, cpus, ts, name, payload,
                                 self._segment, None))
            self._committed += 1
            self._n += len(cpus)
        else:
            self._blocks.append((code, cpus, ts, name, payload, self._segment,
                                 tuple(map(step[0].get, cpus, repeat(sys.maxsize)))))
            step[1] += len(cpus)

    @contextmanager
    def lockstep(self, cpus: Sequence[int], keys: Sequence[int] | None = None):
        """Hold back the blocks recorded inside, then order their events
        by their CPU's key, ``keys[i]`` for ``cpus[i]`` (each CPU's in
        recording order; other CPUs' last).  The default key, a CPU's
        position in ``cpus``, gives what a loop over the CPUs records when
        a step runs them all at once.  Nested steps join the outer one,
        and a nested step's ``keys`` replace its CPUs' keys there."""
        step = self._step
        if step is not None:
            if keys is not None:
                step[0].update(zip(cpus, keys))
            yield
            return
        self._segment += 1
        self._step = [dict(zip(
            cpus, range(len(cpus)) if keys is None else keys)), 0]
        try:
            yield
        finally:
            self._n += self._step[1]
            self._step = None
            self._committed = len(self._blocks)

    def phase(self, label: str, ts: float, *, index: int | None = None) -> None:
        """Record a global phase mark (iteration/snapshot boundary)."""
        attrs = {"index": index} if index is not None else None
        self.emit(PHASE, -1, ts, label, attrs)

    # -- columnar access ---------------------------------------------------
    def _flat(self) -> _Flat:
        flat = self._flat_cache
        if flat is None or len(flat.blocks) != self._committed:
            flat = self._flat_cache = _Flat(self._blocks[:self._committed])
        return flat

    def columns(self) -> dict[str, Any]:
        """Numeric columns as numpy arrays (cached until the next append).

        Keys: ``kind`` (int16 codes per :data:`KIND_CODES`), ``cpu``
        (int64), ``ts`` (float64), ``name_id`` (int64, decode via
        :meth:`name_table`).  Attribute payloads stay in the blocks; see
        :meth:`kind_columns`, :meth:`charge_columns` and
        :meth:`attrs_column`.
        """
        return self._flat().columns

    def attrs_column(self) -> list[dict[str, Any] | None]:
        """The attrs payload of every event, built on first read (shared,
        do not mutate)."""
        flat = self._flat()
        if flat.attrs is None:
            built = list(chain.from_iterable(
                _block_attrs(b[4], len(b[1])) for b in flat.blocks))
            flat.attrs = [built[i] for i in flat.perm.tolist()]
        return flat.attrs

    def kind_columns(self, kinds, keys: Sequence[str] = ()) -> dict[str, list]:
        """The events of ``kinds`` in trace order, as lists: ``row`` (the
        event's index in the trace), ``kind``, ``cpu``, ``ts``, ``name``
        and each attrs field of ``keys`` (``None`` where an event has
        none), read from the blocks without building the attrs dicts."""
        flat = self._flat()
        rows, fields = [], {key: [] for key in keys}
        for block, at in flat.of_kinds(sorted({KIND_CODES[k] for k in kinds})):
            rows.append(at)
            for key, column in fields.items():
                column.extend(_column(block[4], len(at), key))
        at = np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
        order = np.argsort(at)
        at = at[order]
        cols = flat.columns
        out = {
            "row": at.tolist(),
            "kind": [KIND_NAMES[c] for c in cols["kind"][at].tolist()],
            "cpu": cols["cpu"][at].tolist(),
            "ts": cols["ts"][at].tolist(),
            "name": [flat.names[i] for i in cols["name_id"][at].tolist()],
        }
        order = order.tolist()
        for key, column in fields.items():
            out[key] = [column[i] for i in order]
        return out

    def request_columns(self) -> dict[str, list]:
        """One entry per request of every ``WAIT`` event, in trace order:
        the wait's ``row``, ``cpu``, ``name``, ``rank``, ``start`` and
        ``end`` (the wait's ``ts`` where it has none), then the request's
        fields ``kind``, ``partner``, ``bytes``, ``tag``, ``ready_at``,
        ``posted_at`` and ``req_id``."""
        waits = self.kind_columns((WAIT,), ("rank", "start", "end", "requests"))
        for key in ("start", "end"):
            waits[key] = [ts if v is None else v
                          for v, ts in zip(waits[key], waits["ts"])]
        requests = [r or () for r in waits["requests"]]
        wait_of = list(chain.from_iterable(
            map(repeat, range(len(requests)), map(len, requests))))
        out = {key: [waits[key][i] for i in wait_of]
               for key in ("row", "cpu", "name", "rank", "start", "end")}
        fields = list(map(_request_values, chain.from_iterable(requests)))
        columns = zip(*fields) if fields else repeat((), len(_REQUEST_KEYS))
        out.update(zip(_REQUEST_KEYS, map(list, columns)))
        return out

    def field_at(self, rows: Sequence[int], key: str,
                 default: Any = None) -> list:
        """Attrs field ``key`` of the events at trace ``rows`` (``default``
        where one has none), read from their blocks."""
        flat = self._flat()
        at = flat.perm[np.asarray(rows, dtype=np.intp)]
        blocks = np.searchsorted(flat.starts, at, side="right") - 1
        out = []
        for b, i in zip(blocks.tolist(), (at - flat.starts[blocks]).tolist()):
            block = flat.blocks[b]
            out.append(_column(block[4], len(block[1]), key, default)[i])
        return out

    def charge_columns(self) -> dict[str, Any]:
        """Charge payloads per counter: ``{counter: (rows, values)}``.

        ``rows`` is an int64 array of the trace rows (ascending) of the
        ``CHARGE`` events whose recorded counter row held ``counter``
        nonzero; ``values`` is the matching float64 array, read from the
        blocks' charge matrices: the recorded doubles, so the replay's
        ``np.add.at`` scatter-adds, applied in the profiler's order,
        reproduce its sums bit for bit.  Counters appear in slot order.
        Cached until the next append.
        """
        flat = self._flat()
        if flat.charges is None:
            flat.charges = {}
            charge = KIND_CODES[CHARGE]
            blocks = [flat.blocks[i] for i in
                      np.flatnonzero(flat.block_kind == charge).tolist()]
            matrices = [None if b[4] is None else b[4].get("vector")
                        for b in blocks]
            recorded = np.repeat([m is not None for m in matrices],
                                 [len(b[1]) for b in blocks]).astype(bool)
            flat.charges_recorded = bool(recorded.all())
            matrices = [m for m in matrices if m is not None]
            if matrices:
                width = max(m.shape[1] for m in matrices)
                dense = np.concatenate([widen(m, width) for m in matrices])
                rows = flat.inv[flat.kind == charge][recorded].astype(np.int64)
                order = np.argsort(rows)
                rows, dense = rows[order], dense[order]
                nonzero = dense != 0.0
                for slot in np.flatnonzero(nonzero.any(axis=0)).tolist():
                    mask = nonzero[:, slot]
                    flat.charges[counter_name(slot)] = (
                        rows[mask], dense[mask, slot])
        return flat.charges

    @property
    def charges_fully_recorded(self) -> bool:
        """True when every ``CHARGE`` event carried its counter row
        (i.e. the trace is a complete replay log)."""
        self.charge_columns()
        return self._flat().charges_recorded

    def name_table(self) -> list[str]:
        """Names by name id, in order of first appearance in the trace
        (shared, do not mutate)."""
        return self._flat().names

    def event_at(self, index: int) -> TraceEvent:
        """Materialize one event record."""
        flat = self._flat()
        cols = flat.columns
        return TraceEvent(
            KIND_NAMES[int(cols["kind"][index])],
            int(cols["cpu"][index]),
            float(cols["ts"][index]),
            flat.names[int(cols["name_id"][index])],
            self.attrs_column()[index],
        )

    # -- record-oriented access --------------------------------------------
    @property
    def events(self) -> _EventsView:
        """Lazy record view (`TraceEvent` objects built on demand)."""
        return _EventsView(self)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def cpu_ids(self) -> list[int]:
        """CPUs that appear in the trace, sorted (PHASE's -1 excluded)."""
        cpu = self._flat().cpu
        return np.unique(cpu[cpu >= 0]).tolist()

    def final_clocks(self) -> dict[int, float]:
        """Last observed timestamp per CPU — the virtual clock at the end
        of the run (CHARGE events carry pre-charge timestamps, so their
        ``ts + seconds`` end time counts too)."""
        flat = self._flat()
        end = flat.ts.copy()
        charged = flat.kind == KIND_CODES[CHARGE]
        end[charged] += np.fromiter(chain.from_iterable(
            _column(b[4], len(b[1]), "seconds", 0.0)
            for b, _ in flat.of_kinds((KIND_CODES[CHARGE],))), np.float64)
        valid = flat.cpu >= 0
        cpus, which = np.unique(flat.cpu[valid], return_inverse=True)
        last = np.full(len(cpus), -np.inf)
        np.maximum.at(last, which, end[valid])
        return {cpu: t for cpu, t in zip(cpus.tolist(), last.tolist()) if t > 0.0}

    def duration(self) -> float:
        """Trace makespan in seconds (max final clock over CPUs)."""
        clocks = self.final_clocks()
        return max(clocks.values()) if clocks else 0.0

    def rank_of_cpu(self) -> dict[int, int]:
        """cpu → MPI rank mapping recovered from communication events."""
        cols = self.kind_columns(MPI_KINDS, ("rank",))
        mapping: dict[int, int] = {}
        for cpu, rank in zip(cols["cpu"], cols["rank"]):
            if rank is not None:
                mapping.setdefault(cpu, rank)
        return mapping
