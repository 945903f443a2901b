"""Long-format profile cells, gathered while a file is read and turned into
a trial once.

The TAU and CSV readers both meet a profile one cell at a time: an event,
metric and thread with its exclusive, inclusive, calls and subroutines
values.  :class:`CellTable` records the axes in order of first appearance
(the first group seen names an event) and the cells in reading order, and
:meth:`CellTable.trial` builds the arrays through :meth:`Trial.from_arrays`,
where a cell given twice keeps its last values and a cell never given is
zero.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..model import Event, Metric, ProfileError, ThreadId, Trial


class CellTable:
    def __init__(self) -> None:
        self._events: list[Event] = []
        self._metrics: list[Metric] = []
        self._event_at: dict[str, int] = {}
        self._metric_at: dict[str, int] = {}
        self._thread_at: dict[tuple[int, int, int], int] = {}
        #: per cell: metric, event and thread positions, then the four values
        self._cells: list[tuple] = []

    def event(self, name: str, group: str) -> int:
        """The position of event ``name``; a new one is in ``group``."""
        at = self._event_at.get(name)
        if at is None:
            self._events.append(Event(name, group))
            at = self._event_at[name] = len(self._events) - 1
        return at

    def metric(self, name: str) -> int:
        """The position of metric ``name``; a new one is in ``usec`` if it
        is TIME, else in ``counts``."""
        at = self._metric_at.get(name)
        if at is None:
            units = "usec" if name.upper() == "TIME" else "counts"
            self._metrics.append(Metric(name, units=units))
            at = self._metric_at[name] = len(self._metrics) - 1
        return at

    def thread(self, node: int, context: int, thread: int) -> int:
        key = (node, context, thread)
        return self._thread_at.setdefault(key, len(self._thread_at))

    def add(self, metric: int, event: int, thread: int, exclusive: float,
            inclusive: float, calls: float, subroutines: float) -> None:
        self._cells.append((metric, event, thread, exclusive, inclusive,
                            calls, subroutines))

    @property
    def empty(self) -> bool:
        return not self._cells

    def trial(self, name: str, metadata: Mapping[str, Any] | None,
              source: str) -> Trial:
        """The validated trial; a violation raises naming ``source``."""
        table = np.array(self._cells, dtype=np.float64).reshape(-1, 7)
        m, e, t = table[:, :3].astype(np.intp).T
        shape = (len(self._events), len(self._thread_at))
        values = np.zeros((2, len(self._metrics)) + shape)
        last = _last_rows((m * shape[0] + e) * shape[1] + t)
        values[:, m[last], e[last], t[last]] = table[last, 3:5].T
        counts = np.zeros((2,) + shape)
        last = _last_rows(e * shape[1] + t)
        counts[:, e[last], t[last]] = table[last, 5:7].T
        trial = Trial.from_arrays(
            name, metadata, self._events,
            [ThreadId(*key) for key in self._thread_at], self._metrics,
            list(values[0]), list(values[1]), counts[0], counts[1])
        try:
            trial.validate()
        except ProfileError as exc:
            raise ProfileError(f"{source}: {exc}") from None
        return trial


def _last_rows(keys: np.ndarray) -> np.ndarray:
    """The row holding each key's last occurrence."""
    _, first_from_end = np.unique(keys[::-1], return_index=True)
    return len(keys) - 1 - first_from_end
