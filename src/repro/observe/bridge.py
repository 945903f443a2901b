"""The dogfood bridge: a traced analysis run becomes a PerfDMF trial.

The paper's whole point is that performance knowledge lives as data in a
repository where rules can reach it.  This module closes the loop on the
analyzer itself: finished spans are rolled up into TAU-style flat and
callpath events (``cli.run-msa => perfdmf.save_trial``), with ``TIME`` /
``CPU_TIME`` metrics and call counts, and stored as an ordinary
:class:`~repro.perfdmf.Trial`.  From there the existing statistics
operations, diagnosis rules, and the regression sentinel treat the
analyzer like any other instrumented application.

Note: this module imports :mod:`repro.perfdmf`, which itself imports the
:mod:`repro.observe` package root — keep it out of ``observe/__init__``'s
eager imports.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..perfdmf import (
    CALLPATH_SEPARATOR,
    Event,
    PerfDMF,
    Trial,
    TrialBuilder,
    next_trial_name,
)
from .tracer import Tracer

#: Microseconds, matching TAU's TIME metric convention.
TIME = "TIME"
CPU_TIME = "CPU_TIME"

#: Application name self-profiles are stored under.
SELF_APPLICATION = "repro.observe"


def spans_to_trial(
    spans: Iterable[dict],
    *,
    name: str,
    metadata: Mapping | None = None,
) -> Trial:
    """Roll finished timeline spans up into a TAU-style :class:`Trial`.

    Each ``(process, attrs["thread"])`` pair in the trace becomes a
    profile thread; each span name becomes a flat event and each observed
    nesting becomes a callpath event (group ``CALLPATH``).  Inclusive time
    is ``end - start``; exclusive subtracts the direct children's.  Flat
    inclusive values skip spans nested under a same-named ancestor, so
    recursion is not double-counted.
    """
    rows = list(spans)
    if not rows:
        raise ValueError("cannot build a trial from an empty trace")
    by_id = {r["span_id"]: r for r in rows}
    child_wall: dict[str, float] = {}
    child_cpu: dict[str, float] = {}
    for r in rows:
        parent = r["parent_id"]
        if parent in by_id:
            child_wall[parent] = (child_wall.get(parent, 0.0)
                                  + r["end"] - r["start"])
            child_cpu[parent] = (child_cpu.get(parent, 0.0)
                                 + r["attrs"].get("cpu_ms", 0.0))

    def callpath(r: dict) -> list[str]:
        names = [r["name"]]
        seen = {r["span_id"]}
        parent = r["parent_id"]
        while parent in by_id and parent not in seen:
            seen.add(parent)
            r = by_id[parent]
            names.append(r["name"])
            parent = r["parent_id"]
        return names[::-1]

    def thread_of(r: dict) -> tuple[str, int]:
        return (str(r["process"]), r["attrs"].get("thread", 0))

    thread_ids = sorted({thread_of(r) for r in rows})
    thread_pos = {ident: i for i, ident in enumerate(thread_ids)}

    # per span and event: event, thread, excl_us, incl_us, cpu_excl, cpu_incl
    cells: list[tuple] = []
    for r in rows:
        t = thread_pos[thread_of(r)]
        wall_us = (r["end"] - r["start"]) * 1e6
        cpu_us = r["attrs"].get("cpu_ms", 0.0) * 1e3
        excl_us = max(wall_us - child_wall.get(r["span_id"], 0.0) * 1e6, 0.0)
        cpu_excl_us = max(cpu_us - child_cpu.get(r["span_id"], 0.0) * 1e3,
                          0.0)
        path = callpath(r)
        # flat event: exclusive always; inclusive only from the outermost
        # occurrence of this name on the path (recursion guard)
        outermost = path.count(r["name"]) == 1
        cells.append((r["name"], t, excl_us, wall_us if outermost else 0.0,
                      cpu_excl_us, cpu_us if outermost else 0.0))
        if len(path) > 1:
            cells.append((CALLPATH_SEPARATOR.join(path), t, excl_us, wall_us,
                          cpu_excl_us, cpu_us))

    events = sorted({cell[0] for cell in cells})
    at = {event: i for i, event in enumerate(events)}
    # excl_us, incl_us, cpu_excl, cpu_incl, calls as (events, threads)
    values = np.zeros((5, len(events), len(thread_ids)))
    for event, t, *row in cells:
        values[:, at[event], t] += (*row, 1.0)
    return (TrialBuilder(name, metadata)
            .with_events(Event(event, "CALLPATH" if CALLPATH_SEPARATOR in event
                               else "TAU_DEFAULT") for event in events)
            .with_threads(len(thread_ids))
            .with_metric(TIME, values[0], values[1], units="microseconds")
            .with_metric(CPU_TIME, values[2], values[3], units="microseconds")
            .with_calls(values[4])
            .build(validate=False))


def store_self_profile(
    tracer: Tracer,
    db: PerfDMF,
    *,
    experiment: str,
    application: str = SELF_APPLICATION,
    name: str | None = None,
    metadata: Mapping | None = None,
) -> tuple[Trial, int]:
    """Convert ``tracer``'s spans to a trial and store it; returns
    ``(trial, trial_id)``.  The analyzer's profile lands in the same
    repository as the application profiles it was analyzing."""
    name = name or next_trial_name(db, application, experiment, "run")
    meta = {
        "source": "repro.observe",
        "spans": len(tracer.finished()),
        "dropped_spans": tracer.dropped_spans,
        **dict(metadata or {}),
    }
    trial = spans_to_trial(tracer.finished(), name=name, metadata=meta)
    trial_id = db.save_trial(application, experiment, trial)
    return trial, trial_id
