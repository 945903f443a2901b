"""Flat CSV profile format (one row per event × metric × thread cell).

Columns::

    event,group,metric,node,context,thread,exclusive,inclusive,calls,subroutines

This is the lowest-common-denominator import path: spreadsheet exports,
ad-hoc scripts, and downstream analyses that want long-format data.  ``calls``
and ``subroutines`` are repeated on every metric row of an event/thread pair;
on import the last occurrence wins (they are metric-independent).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..model import Event, Metric, ProfileError, ThreadId, Trial

COLUMNS = [
    "event",
    "group",
    "metric",
    "node",
    "context",
    "thread",
    "exclusive",
    "inclusive",
    "calls",
    "subroutines",
]


def write_csv_profile(trial: Trial, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        calls = trial.calls_array()
        subrs = trial.subroutines_array()
        for metric in trial.metric_names():
            exc = trial.exclusive_array(metric)
            inc = trial.inclusive_array(metric)
            for e, event in enumerate(trial.events):
                for t, thread in enumerate(trial.threads):
                    writer.writerow(
                        [
                            event.name,
                            event.group,
                            metric,
                            thread.node,
                            thread.context,
                            thread.thread,
                            repr(float(exc[e, t])),
                            repr(float(inc[e, t])),
                            repr(float(calls[e, t])),
                            repr(float(subrs[e, t])),
                        ]
                    )
    return path


def read_csv_profile(
    path: str | Path, *, name: str | None = None, metadata: dict | None = None
) -> Trial:
    """The trial a CSV file holds.

    Events, metrics and threads take the order of their first row; the
    first row of an event sets its group.  A cell given twice keeps its
    last value, and a cell no row gives is zero.  The rows are parsed into
    columns and the arrays built once, through :meth:`Trial.from_arrays`.
    """
    path = Path(path)
    if not path.is_file():
        raise ProfileError(f"no such profile file: {path}")
    events: list[Event] = []
    metrics: list[Metric] = []
    threads: list[ThreadId] = []
    event_at: dict[str, int] = {}
    metric_at: dict[str, int] = {}
    thread_at: dict[tuple[int, int, int], int] = {}
    #: per row: metric, event and thread positions, then the four values
    cells: list[tuple] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = set(COLUMNS) - set(header)
        if missing:
            raise ProfileError(f"{path}: missing CSV columns {sorted(missing)}")
        # a repeated column name reads its last column, as csv.DictReader does
        at = {column: i for i, column in enumerate(header)}
        ev, grp, met, node, ctx, thr, exc, inc, calls, subrs = (
            at[column] for column in COLUMNS)
        for row in reader:
            if not row:
                continue  # a blank line
            if len(row) < len(header):
                raise ProfileError(f"{path}:{reader.line_num}: row has "
                                   f"{len(row)} of {len(header)} columns")
            try:
                key = (int(row[node]), int(row[ctx]), int(row[thr]))
                e = event_at.get(row[ev])
                if e is None:
                    events.append(Event(row[ev], row[grp] or "TAU_DEFAULT"))
                    e = event_at[row[ev]] = len(events) - 1
                m = metric_at.get(row[met])
                if m is None:
                    units = "usec" if row[met].upper() == "TIME" else "counts"
                    metrics.append(Metric(row[met], units=units))
                    m = metric_at[row[met]] = len(metrics) - 1
                t = thread_at.get(key)
                if t is None:
                    threads.append(ThreadId(*key))
                    t = thread_at[key] = len(threads) - 1
                cells.append((m, e, t, float(row[exc]), float(row[inc]),
                              float(row[calls]), float(row[subrs])))
            except (ValueError, TypeError, ProfileError) as exc_info:
                raise ProfileError(f"{path}:{reader.line_num}: bad row: "
                                   f"{exc_info}") from None
    if not cells:
        raise ProfileError(f"{path}: no data rows")
    table = np.array(cells)
    m, e, t = table[:, :3].astype(np.intp).T
    shape = (len(events), len(threads))
    values = np.zeros((2, len(metrics)) + shape)
    last = _last_rows((m * shape[0] + e) * shape[1] + t)
    values[:, m[last], e[last], t[last]] = table[last, 3:5].T
    counts = np.zeros((2,) + shape)
    last = _last_rows(e * shape[1] + t)
    counts[:, e[last], t[last]] = table[last, 5:7].T
    trial = Trial.from_arrays(name or path.stem, metadata, events, threads,
                              metrics, list(values[0]), list(values[1]),
                              counts[0], counts[1])
    try:
        trial.validate()
    except ProfileError as exc_info:
        raise ProfileError(f"{path}: {exc_info}") from None
    return trial


def _last_rows(keys: np.ndarray) -> np.ndarray:
    """The row holding each key's last occurrence."""
    _, first_from_end = np.unique(keys[::-1], return_index=True)
    return len(keys) - 1 - first_from_end
