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
import io
from pathlib import Path

from ..model import ProfileError, Trial
from . import profile_text
from .cells import CellTable

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
    last value, and a cell no row gives is zero (see :class:`CellTable`).
    """
    path = Path(path)
    if not path.is_file():
        raise ProfileError(f"no such profile file: {path}")
    table = CellTable()
    with io.StringIO(profile_text(path), newline="") as fh:
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
                t = table.thread(int(row[node]), int(row[ctx]), int(row[thr]))
                e = table.event(row[ev], row[grp] or "TAU_DEFAULT")
                table.add(table.metric(row[met]), e, t, float(row[exc]),
                          float(row[inc]), float(row[calls]),
                          float(row[subrs]))
            except (ValueError, TypeError, ProfileError) as exc_info:
                raise ProfileError(f"{path}:{reader.line_num}: bad row: "
                                   f"{exc_info}") from None
    if table.empty:
        raise ProfileError(f"{path}: no data rows")
    return table.trial(name or path.stem, metadata, str(path))
