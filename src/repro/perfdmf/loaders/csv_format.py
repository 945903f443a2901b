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
    path = Path(path)
    if not path.is_file():
        raise ProfileError(f"no such profile file: {path}")
    trial = Trial(name or path.stem, metadata)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(COLUMNS) - set(reader.fieldnames or [])
        if missing:
            raise ProfileError(f"{path}: missing CSV columns {sorted(missing)}")
        rows = 0
        for row in reader:
            lineno = reader.line_num
            filled = sum(row[name] is not None for name in reader.fieldnames)
            if filled < len(reader.fieldnames):
                # DictReader fills the columns a short row lacks with None
                raise ProfileError(f"{path}:{lineno}: row has {filled} of "
                                   f"{len(reader.fieldnames)} columns")
            try:
                thread = ThreadId(int(row["node"]), int(row["context"]), int(row["thread"]))
                trial.add_event(Event(row["event"], row["group"] or "TAU_DEFAULT"))
                units = "usec" if row["metric"].upper() == "TIME" else "counts"
                trial.add_metric(Metric(row["metric"], units=units))
                trial.set_value(
                    row["event"],
                    row["metric"],
                    thread,
                    exclusive=float(row["exclusive"]),
                    inclusive=float(row["inclusive"]),
                )
                trial.set_calls(
                    row["event"],
                    thread,
                    calls=float(row["calls"]),
                    subroutines=float(row["subroutines"]),
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ProfileError(f"{path}:{lineno}: bad row: {exc}") from None
            rows += 1
    if rows == 0:
        raise ProfileError(f"{path}: no data rows")
    try:
        trial.validate()
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None
    return trial
