"""The PerfDMF data model: applications, experiments, trials, profiles.

PerfDMF (the Performance Data Management Framework underlying PerfExplorer)
organizes parallel performance data hierarchically::

    Application → Experiment → Trial → {Metric × Event × Thread} values

A *trial* is one run of an instrumented application.  For every instrumented
code region (*event* — a procedure, loop, or callpath like
``"main => outer_loop => inner_loop"``), every *metric* (``TIME``,
``CPU_CYCLES``, ``L3_MISSES``, …), and every *thread* (flattened
node/context/thread triple), the profile records:

* **exclusive** value — cost inside the region, excluding callees,
* **inclusive** value — cost including callees,
* **calls** / **subroutine calls** — invocation counts (metric-independent).

Values are held in dense NumPy arrays of shape ``(n_events, n_threads)`` per
metric, which makes the PerfExplorer statistics operations (means, standard
deviations, correlations across threads) vectorized one-liners.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

#: TAU's callpath separator. ``"a => b"`` is region ``b`` called from ``a``.
CALLPATH_SEPARATOR = " => "

#: Conventional name of the program entry point event.
MAIN_EVENT = "main"


class ProfileError(Exception):
    """Raised for malformed or inconsistent profile data."""


@dataclass(frozen=True, order=True)
class ThreadId:
    """A flattened MPI-rank/OpenMP-thread coordinate (TAU's n,c,t triple)."""

    node: int = 0
    context: int = 0
    thread: int = 0

    def __str__(self) -> str:
        return f"{self.node}.{self.context}.{self.thread}"

    @classmethod
    def parse(cls, text: str) -> "ThreadId":
        parts = text.split(".")
        if len(parts) != 3:
            raise ProfileError(f"thread id must be 'n.c.t', got {text!r}")
        try:
            return cls(*(int(p) for p in parts))
        except ValueError as exc:
            raise ProfileError(f"bad thread id {text!r}: {exc}") from None


@dataclass(frozen=True)
class Metric:
    """A measured quantity.

    ``derived`` metrics are produced by analysis operations (e.g.
    ``"(BACK_END_BUBBLE_ALL / CPU_CYCLES)"``) rather than measurement.
    """

    name: str
    units: str = "counts"
    derived: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("metric name must be non-empty")


class Event:
    """An instrumented code region.

    Parameters
    ----------
    name:
        Region name; callpaths use :data:`CALLPATH_SEPARATOR`.
    group:
        TAU-style group tag (``"TAU_DEFAULT"``, ``"OPENMP"``, ``"MPI"``,
        ``"LOOP"``...), used by selective instrumentation and rules.
    """

    __slots__ = ("name", "group")

    def __init__(self, name: str, group: str = "TAU_DEFAULT") -> None:
        if not name:
            raise ProfileError("event name must be non-empty")
        self.name = name
        self.group = group

    @property
    def is_callpath(self) -> bool:
        return CALLPATH_SEPARATOR in self.name

    @property
    def leaf(self) -> str:
        """The innermost region of a callpath event (or the name itself)."""
        return self.name.rsplit(CALLPATH_SEPARATOR, 1)[-1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event({self.name!r}, group={self.group!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Event) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


class CallGraph:
    """A trial's caller→callee edges as codes over one names table.

    ``names`` is the trial's event names (its first ``events`` entries),
    then the other names the edges use in order of first appearance;
    ``codes`` is the ``(edges, 2)`` array of each edge's parent and child
    positions in ``names``.  :meth:`edges` gives the list back, and the
    ``repr`` is that list's.

    Examples
    --------
    >>> g = CallGraph.code([["main", "ext"], ["main", "solve"]], ["main", "solve"])
    >>> g.names, g.codes.tolist(), g.edges()
    (['main', 'solve', 'ext'], [[0, 2], [0, 1]], [['main', 'ext'], ['main', 'solve']])
    """

    __slots__ = ("names", "codes", "events", "_table")

    def __init__(self, names: list[str], codes: np.ndarray, events: int) -> None:
        self.names, self.codes, self.events = names, codes, events
        codes.flags.writeable = False
        self._table = np.array(names, dtype=object)

    @classmethod
    def code(cls, edges: Any, events: list[str]) -> "CallGraph | None":
        """``edges`` (a graph, or a list of 2-item lists of strings) coded
        against ``events``; None for anything else."""
        if isinstance(edges, CallGraph):
            if edges.names[:edges.events] == events:
                return edges
            edges = edges.edges()
        if not isinstance(edges, list) or set(map(type, edges)) - {list} \
                or set(map(len, edges)) - {2}:
            return None
        flat = list(chain.from_iterable(edges))
        if set(map(type, flat)) - {str}:
            return None
        names = list(dict.fromkeys(chain(events, flat)))
        lookup = dict(zip(names, range(len(names))))
        codes = np.fromiter(map(lookup.__getitem__, flat), np.int32,
                            len(flat)).reshape(-1, 2)
        return cls(names, codes, len(events))

    def column(self, side: int) -> list[str]:
        """Each edge's parent (``side`` 0) or child (1) name."""
        return self._table[self.codes[:, side]].tolist()

    def edges(self) -> list[list[str]]:
        """The ``[parent, child]`` list the graph was coded from."""
        return self._table[self.codes].tolist()

    def __repr__(self) -> str:
        return repr(self.edges())


def _index(keys: Sequence, what: str) -> dict:
    """Key → position; a repeated key raises :class:`ProfileError`."""
    index = {key: i for i, key in enumerate(keys)}
    if len(index) != len(keys):
        dup = next(key for i, key in enumerate(keys) if index[key] != i)
        raise ProfileError(f"duplicate {what} {dup!r}")
    return index


def _dense(values: np.ndarray, shape: tuple[int, int], label: str) -> np.ndarray:
    """``values`` as a C-contiguous float64 array (a copy only if it is not
    one) of the given ``shape``."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ProfileError(f"{label} array shape {arr.shape} != {shape}")
    return arr


class Trial:
    """One run's complete profile.

    Every trial is built once from whole ``(events, threads)`` arrays by
    :meth:`from_arrays` (directly, or through :class:`TrialBuilder`), so its
    events, threads and metrics are fixed when it is built; ``Trial(name)``
    alone is the empty trial.

    Attributes
    ----------
    name:
        Trial label, e.g. ``"1_8"`` (1 node, 8 threads) as in the paper.
    metadata:
        The *performance context*: free-form key/value pairs (machine, problem
        size, schedule, compiler flags...).  Rules may reference metadata to
        justify conclusions — a PerfExplorer 2.0 feature the paper highlights.

    The thread axis is a ``(T, 3)`` id array and a well-formed
    ``metadata["callgraph"]`` a :class:`CallGraph`; :attr:`threads` and
    :attr:`metadata` build the objects and the list on first read.
    """

    def __init__(self, name: str, metadata: Mapping[str, Any] | None = None) -> None:
        if not name:
            raise ProfileError("trial name must be non-empty")
        self.name = name
        self._meta: dict[str, Any] = dict(metadata or {})
        self._events: list[Event] = []
        self._event_index: dict[str, int] = {}
        self._metrics: list[Metric] = []
        self._metric_index: dict[str, int] = {}
        self._thread_ids: np.ndarray = np.empty((0, 3), np.int64)
        # per-metric (E, T) arrays
        self._exclusive: dict[str, np.ndarray] = {}
        self._inclusive: dict[str, np.ndarray] = {}
        # metric-independent (E, T) arrays
        self._calls: np.ndarray = np.zeros((0, 0))
        self._subrs: np.ndarray = np.zeros((0, 0))

    @classmethod
    def from_arrays(
        cls,
        name: str,
        metadata: Mapping[str, Any] | None,
        events: Iterable[Event],
        threads: Iterable[ThreadId] | np.ndarray,
        metrics: Iterable[Metric],
        exclusive: Sequence[np.ndarray],
        inclusive: Sequence[np.ndarray],
        calls: np.ndarray,
        subroutines: np.ndarray,
    ) -> "Trial":
        """A trial holding whole ``(events, threads)`` arrays, where
        ``exclusive[k]`` and ``inclusive[k]`` belong to ``metrics[k]``;
        ``threads`` is :class:`ThreadId` objects or a ``(T, 3)`` id array.

        Arrays that are C-contiguous float64 are kept as given, not copied;
        any other is converted.  A ``metadata["callgraph"]`` list of string
        pairs, or a :class:`CallGraph`, is coded against the events.  A
        repeated event, thread or metric name, or an array of another
        shape, raises :class:`ProfileError`.
        """
        out = cls(name, metadata)
        out._events, out._metrics = list(events), list(metrics)
        out._thread_ids = ids = np.array(
            threads if isinstance(threads, np.ndarray) else
            [(t.node, t.context, t.thread) for t in threads],
            np.int64).reshape(-1, 3)
        ids.flags.writeable = False
        order = np.lexsort(ids.T[::-1])
        same = (np.diff(ids[order], axis=0) == 0).all(axis=1)
        if same.any():
            raise ProfileError(f"duplicate thread "
                               f"{ThreadId(*ids[order[np.argmax(same)]].tolist())}")
        out._event_index = _index([e.name for e in out._events], "event")
        out._metric_index = _index([m.name for m in out._metrics], "metric")
        graph = CallGraph.code(out._meta.get("callgraph"), list(out._event_index))
        if graph is not None:
            out._meta["callgraph"] = graph
        if not len(exclusive) == len(inclusive) == len(out._metrics):
            raise ProfileError(f"{len(out._metrics)} metrics but {len(exclusive)} "
                               f"exclusive and {len(inclusive)} inclusive arrays")
        shape = (len(out._events), out.thread_count)
        for metric, exc, inc in zip(out._metrics, exclusive, inclusive):
            label = f"metric {metric.name!r}"
            out._exclusive[metric.name] = _dense(exc, shape, f"{label} exclusive")
            out._inclusive[metric.name] = _dense(inc, shape, f"{label} inclusive")
        out._calls = _dense(calls, shape, "calls")
        out._subrs = _dense(subroutines, shape, "subroutines")
        return out

    # -- metadata -------------------------------------------------------------
    @property
    def metadata(self) -> dict[str, Any]:
        """The metadata dict; a coded callgraph is decoded into its
        ``[parent, child]`` list, at its key, on first read."""
        graph = self._meta.get("callgraph")
        if isinstance(graph, CallGraph):
            self._meta["callgraph"] = graph.edges()
        return self._meta

    def coded_metadata(self) -> dict[str, Any]:
        """A shallow copy of the metadata that keeps a callgraph not yet
        read as its :class:`CallGraph`."""
        return dict(self._meta)

    @property
    def callgraph(self) -> CallGraph | None:
        """The callgraph coded against the events (coded again if read or
        set through :attr:`metadata`), or None if it is not well formed."""
        return CallGraph.code(self._meta.get("callgraph"), self.event_names())

    # -- value access -------------------------------------------------------
    def _thread_pos(self, thread) -> int:
        """Resolve a thread reference to its flat index.

        An ``int`` means the flat index directly (the common case in
        analysis code); a tuple or :class:`ThreadId` names the n.c.t triple.
        """
        if isinstance(thread, int):
            if not 0 <= thread < self.thread_count:
                raise ProfileError(
                    f"thread index {thread} out of range "
                    f"(trial has {self.thread_count} threads)"
                )
            return thread
        if isinstance(thread, tuple):
            thread = ThreadId(*thread)
        if thread not in self._thread_index:
            raise ProfileError(f"unknown thread {thread}")
        return self._thread_index[thread]

    @cached_property
    def _thread_index(self) -> dict[ThreadId, int]:
        """:class:`ThreadId` → position, in axis order."""
        return {ThreadId(*row): i for i, row in
                enumerate(self._thread_ids.tolist())}

    def _et(self, event: str, metric: str, thread) -> tuple[int, int]:
        if event not in self._event_index:
            raise ProfileError(f"unknown event {event!r}")
        if metric not in self._metric_index:
            raise ProfileError(
                f"unknown metric {metric!r}; available: {self.metric_names()}"
            )
        return self._event_index[event], self._thread_pos(thread)

    def get_exclusive(self, event: str, metric: str, thread) -> float:
        e, t = self._et(event, metric, thread)
        return float(self._exclusive[metric][e, t])

    def get_inclusive(self, event: str, metric: str, thread) -> float:
        e, t = self._et(event, metric, thread)
        return float(self._inclusive[metric][e, t])

    def get_calls(self, event: str, thread) -> float:
        if event not in self._event_index:
            raise ProfileError(f"unknown event {event!r}")
        return float(self._calls[self._event_index[event], self._thread_pos(thread)])

    # -- array views (no copies; callers must not mutate) ------------------
    def exclusive_array(self, metric: str) -> np.ndarray:
        """(n_events, n_threads) exclusive values for ``metric``."""
        if metric not in self._exclusive:
            raise ProfileError(
                f"unknown metric {metric!r}; available: {self.metric_names()}"
            )
        return self._exclusive[metric]

    def inclusive_array(self, metric: str) -> np.ndarray:
        if metric not in self._inclusive:
            raise ProfileError(
                f"unknown metric {metric!r}; available: {self.metric_names()}"
            )
        return self._inclusive[metric]

    def calls_array(self) -> np.ndarray:
        return self._calls

    def subroutines_array(self) -> np.ndarray:
        return self._subrs

    # -- introspection ------------------------------------------------------
    @property
    def events(self) -> list[Event]:
        return list(self._events)

    def event_names(self) -> list[str]:
        return [e.name for e in self._events]

    def event_index(self, name: str) -> int:
        if name not in self._event_index:
            raise ProfileError(f"unknown event {name!r}")
        return self._event_index[name]

    def has_event(self, name: str) -> bool:
        return name in self._event_index

    @property
    def metrics(self) -> list[Metric]:
        return list(self._metrics)

    def metric_names(self) -> list[str]:
        return [m.name for m in self._metrics]

    def metric(self, name: str) -> Metric:
        """The metric called ``name``, with its units."""
        if name not in self._metric_index:
            raise ProfileError(
                f"unknown metric {name!r}; available: {self.metric_names()}")
        return self._metrics[self._metric_index[name]]

    def has_metric(self, name: str) -> bool:
        return name in self._metric_index

    @property
    def threads(self) -> list[ThreadId]:
        return list(self._thread_index)

    def thread_array(self) -> np.ndarray:
        """``(n_threads, 3)`` int64 ``(node, context, thread)`` ids
        (read-only, not a copy)."""
        return self._thread_ids

    @property
    def thread_count(self) -> int:
        return len(self._thread_ids)

    @property
    def event_count(self) -> int:
        return len(self._events)

    def main_event(self) -> str:
        """The top-level event: prefer :data:`MAIN_EVENT`, else the event
        with the greatest total inclusive value of the first metric."""
        if MAIN_EVENT in self._event_index:
            return MAIN_EVENT
        if not self._events or not self._metrics:
            raise ProfileError("trial is empty; no main event")
        metric = self._metrics[0].name
        totals = self._inclusive[metric].sum(axis=1)
        return self._events[int(np.argmax(totals))].name

    def validate(self) -> None:
        """Check profile invariants; raises :class:`ProfileError` on violation.

        * inclusive ≥ exclusive ≥ 0 for every cell (within tolerance) — for
          *measured* metrics only: derived metrics (ratios, differences)
          are not additive over the call tree and are exempt,
        * calls ≥ 0,
        * every array (per-metric values, calls, subroutines) has the
          registries' ``(events, threads)`` shape and holds no NaN.
        """
        n_e, n_t = len(self._events), self.thread_count
        arrays = {"calls": self._calls, "subroutines": self._subrs}
        for metric_obj in self._metrics:
            arrays[f"metric {metric_obj.name!r} exclusive"] = \
                self._exclusive[metric_obj.name]
            arrays[f"metric {metric_obj.name!r} inclusive"] = \
                self._inclusive[metric_obj.name]
        for label, arr in arrays.items():
            if arr.shape != (n_e, n_t):
                raise ProfileError(
                    f"{label} array shape {arr.shape} != ({n_e},{n_t})")
            nan = np.isnan(arr)
            if nan.any():
                e, t = np.argwhere(nan)[0]
                raise ProfileError(
                    f"NaN in {label} at event {self._events[e].name!r}, "
                    f"thread {self.threads[t]}")
        for metric_obj in self._metrics:
            metric = metric_obj.name
            exc = self._exclusive[metric]
            inc = self._inclusive[metric]
            if metric_obj.derived:
                continue
            if (exc < -1e-9).any():
                raise ProfileError(f"negative exclusive values in {metric!r}")
            tol = 1e-6 * (1.0 + np.abs(inc))
            if (exc > inc + tol).any():
                bad = np.argwhere(exc > inc + tol)[0]
                raise ProfileError(
                    f"exclusive > inclusive for metric {metric!r}, event "
                    f"{self._events[bad[0]].name!r}, thread {self.threads[bad[1]]}"
                )
        if (self._calls < 0).any():
            raise ProfileError("negative call counts")

    def copy(self, name: str | None = None) -> "Trial":
        """Deep copy (used by operations that transform trials)."""
        return Trial.from_arrays(
            name or self.name, self._meta,
            self._events, self._thread_ids, self._metrics,
            [self._exclusive[m.name].copy() for m in self._metrics],
            [self._inclusive[m.name].copy() for m in self._metrics],
            self._calls.copy(), self._subrs.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trial({self.name!r}: {len(self._events)} events x "
            f"{len(self._metrics)} metrics x {self.thread_count} threads)"
        )


class TrialBuilder:
    """Bulk construction of trials from dense arrays.

    Register the axes with :meth:`with_events` and :meth:`with_threads`,
    then give whole ``(events, threads)`` arrays per metric and for the call
    counts.  Each array is shape-checked and copied when given, so the
    trial shares no memory with the caller's arrays; :meth:`build` installs
    them through :meth:`Trial.from_arrays`.
    """

    def __init__(self, name: str, metadata: Mapping[str, Any] | None = None) -> None:
        if not name:
            raise ProfileError("trial name must be non-empty")
        self._name = name
        self._metadata = dict(metadata or {})
        self._events: list[Event] = []
        #: (node, context, thread) rows
        self._threads: list[tuple[int, int, int]] = []
        self._metrics: list[Metric] = []
        self._exclusive: list[np.ndarray] = []
        self._inclusive: list[np.ndarray] = []
        self._calls: np.ndarray | None = None
        self._subrs: np.ndarray | None = None

    def with_threads(self, count: int, *, node_of=None) -> "TrialBuilder":
        """Register ``count`` threads. ``node_of(i)`` maps flat index → node."""
        self._threads.extend(
            (node_of(i) if node_of else 0, 0, i) for i in range(count))
        return self

    def with_events(
        self, names: Iterable[Event | str], group: str = "TAU_DEFAULT"
    ) -> "TrialBuilder":
        """Register events; a name (not an :class:`Event`) gets ``group``."""
        self._events.extend(
            Event(ev, group) if isinstance(ev, str) else ev for ev in names
        )
        return self

    def _checked(self, values: np.ndarray, label: str) -> np.ndarray:
        """A C-contiguous float64 copy of ``values`` in the registered
        ``(events, threads)`` shape."""
        return _dense(np.array(values, dtype=np.float64, order="C"),
                      (len(self._events), len(self._threads)), label)

    def with_metric(
        self,
        metric: str | Metric,
        exclusive: np.ndarray,
        inclusive: np.ndarray | None = None,
        *,
        units: str = "counts",
        derived: bool = False,
    ) -> "TrialBuilder":
        """Install full (E, T) arrays for one metric.

        ``metric`` is a name, described by ``units`` and ``derived``, or a
        source trial's :class:`Metric`, whose units carry over and which
        stays derived (``derived=True`` marks it derived in any case).
        ``inclusive`` defaults to ``exclusive`` (flat profiles).
        """
        if isinstance(metric, Metric):
            metric = Metric(metric.name, units=metric.units,
                            derived=metric.derived or derived)
        else:
            metric = Metric(metric, units=units, derived=derived)
        exc = self._checked(exclusive, f"metric {metric.name!r} exclusive")
        inc = exc.copy() if inclusive is None else self._checked(
            inclusive, f"metric {metric.name!r} inclusive")
        self._metrics.append(metric)
        self._exclusive.append(exc)
        self._inclusive.append(inc)
        return self

    def with_calls(self, calls: np.ndarray, subroutines: np.ndarray | None = None) -> "TrialBuilder":
        self._calls = self._checked(calls, "calls")
        if subroutines is not None:
            self._subrs = self._checked(subroutines, "subroutines")
        return self

    def build(self, *, validate: bool = True) -> Trial:
        """The trial; call counts not given are zero."""
        shape = (len(self._events), len(self._threads))
        trial = Trial.from_arrays(
            self._name, self._metadata, self._events, np.array(self._threads),
            self._metrics, self._exclusive, self._inclusive,
            np.zeros(shape) if self._calls is None else self._calls,
            np.zeros(shape) if self._subrs is None else self._subrs,
        )
        if validate:
            trial.validate()
        return trial
