"""Exporters: JSONL, Chrome ``trace_event`` JSON, and a terminal report.

Every exporter reads one span shape, the timeline span of
:func:`repro.observe.context.make_span` that the tracer records and the
service stitches.  The JSONL form is the durable interchange format (one
record per line: spans, events, metric snapshots); the Chrome form loads
directly into ``about:tracing`` / Perfetto so the analyzer's own timeline
can be eyeballed like any application trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .tracer import Tracer

#: The keys of a timeline span; a saved span record must carry them all.
SPAN_KEYS = ("trace_id", "span_id", "parent_id", "name", "start", "end",
             "process", "attrs")


# -- JSONL -----------------------------------------------------------------
def to_jsonl_records(tracer: Tracer) -> list[dict]:
    """Every record the tracer holds, as JSON-ready dicts."""
    spans = tracer.finished()
    records: list[dict] = [{
        "type": "meta",
        "epoch": tracer.epoch,
        "spans": len(spans),
        "dropped_spans": tracer.dropped_spans,
        "dropped_events": tracer.events.dropped,
    }]
    records.extend({"type": "span", **s} for s in spans)
    records.extend({"type": "event", **e} for e in tracer.events.records())
    records.extend(tracer.metrics.snapshot())
    return records


def write_jsonl(tracer: Tracer, path: str | Path) -> int:
    """Write the trace as JSONL; returns the number of records."""
    records = to_jsonl_records(tracer)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, default=str) + "\n")
    return len(records)


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL trace back into record dicts (blank lines skipped).

    Raises :class:`ValueError` naming ``path:line`` for a line that is not
    a JSON object, or for a span record without the timeline keys (such
    as one saved by a version that recorded another span shape) or with
    a non-numeric ``start``/``end`` or non-object ``attrs``.
    """
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc.msg})") \
                    from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            if rec.get("type") == "span":
                missing = [k for k in SPAN_KEYS if k not in rec]
                if missing:
                    raise ValueError(
                        f"{path}:{lineno}: span record lacks timeline "
                        f"key(s) {', '.join(missing)}")
                if not (isinstance(rec["attrs"], dict) and all(
                        isinstance(rec[k], (int, float)) for k in
                        ("start", "end"))):
                    raise ValueError(
                        f"{path}:{lineno}: span record needs numeric "
                        "start/end and object attrs")
            out.append(rec)
    return out


def spans_from_records(records: Iterable[dict]) -> list[dict]:
    return [r for r in records if r.get("type") == "span"]


def events_from_records(records: Iterable[dict]) -> list[dict]:
    return [r for r in records if r.get("type") == "event"]


# -- Chrome trace_event ----------------------------------------------------
def _lane(pid: int, name: str, sort_index: int) -> list[dict]:
    """The metadata rows naming and ordering one Chrome process lane."""
    return [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": name}},
        {"name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
         "args": {"sort_index": sort_index}},
    ]


def to_chrome(spans: Iterable[dict], *, events: Iterable[dict] = (),
              label: str = "repro analysis stack") -> dict:
    """Render timeline spans as Chrome ``trace_event`` JSON.

    Spans become complete ("X") events with one process lane per
    ``process`` and one thread row per ``attrs["thread"]``; structured
    events become instants ("i") on the ``label`` lane.  Timestamps are
    microseconds from the earliest span or event.
    """
    spans = sorted(spans, key=lambda s: float(s["start"]))
    events = list(events)
    t0 = min([float(s["start"]) for s in spans]
             + [float(e["ts"]) for e in events if "ts" in e], default=0.0)
    out: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": label},
    }]
    pids: dict[str, int] = {}
    rows: dict[int, dict] = {}
    for s in spans:
        process = str(s["process"])
        pid = pids.get(process)
        if pid is None:
            pid = pids[process] = len(pids) + 1
            out.extend(_lane(pid, process, pid))
        attrs = s["attrs"]
        thread = attrs.get("thread")
        row = rows.setdefault(pid, {})
        tid = row.get(thread)
        if tid is None:
            tid = row[thread] = len(row)
            if thread is not None:
                out.append({"name": "thread_name", "ph": "M", "pid": pid,
                            "tid": tid, "args": {"name": f"thread-{thread}"}})
        args = dict(attrs)
        args["span_id"] = s["span_id"]
        args["trace_id"] = s["trace_id"]
        if s["parent_id"] is not None:
            args["parent_id"] = s["parent_id"]
        out.append({
            "name": s["name"],
            "cat": str(s["name"]).split(".", 1)[0],
            "ph": "X",
            "ts": round((float(s["start"]) - t0) * 1e6, 3),
            "dur": round((float(s["end"]) - float(s["start"])) * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    for e in events:
        out.append({
            "name": e.get("name", "event"),
            "cat": "event",
            "ph": "i",
            "ts": round(max(float(e.get("ts", t0)) - t0, 0.0) * 1e6, 3),
            "pid": 0,
            "tid": 0,
            "s": "p",
            "args": {k: v for k, v in e.items()
                     if k not in ("type", "name", "ts")},
        })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome(spans: Iterable[dict], path: str | Path, *,
                 events: Iterable[dict] = (),
                 label: str = "repro analysis stack") -> int:
    """Write :func:`to_chrome`'s document to ``path``; returns the number
    of trace events."""
    doc = to_chrome(spans, events=events, label=label)
    Path(path).write_text(json.dumps(doc, default=str))
    return len(doc["traceEvents"])


# -- terminal report -------------------------------------------------------
def span_summary(spans: Iterable[dict]) -> list[dict]:
    """Aggregate spans by name: calls, total/self wall, CPU; slowest first.

    *Self* time is ``end - start`` minus that of direct children — the
    exclusive/inclusive split PerfDMF uses, computed on timeline spans.
    """
    spans = list(spans)
    child_wall: dict[str, float] = {}
    for s in spans:
        parent = s["parent_id"]
        if parent is not None:
            child_wall[parent] = (child_wall.get(parent, 0.0)
                                  + s["end"] - s["start"])
    agg: dict[str, dict] = {}
    for s in spans:
        wall = s["end"] - s["start"]
        row = agg.setdefault(s["name"], {
            "name": s["name"], "calls": 0, "wall": 0.0, "self": 0.0,
            "cpu": 0.0, "errors": 0,
        })
        row["calls"] += 1
        row["wall"] += wall
        row["self"] += max(wall - child_wall.get(s["span_id"], 0.0), 0.0)
        row["cpu"] += s["attrs"].get("cpu_ms", 0.0) / 1e3
        if s["attrs"].get("status") == "error":
            row["errors"] += 1
    return sorted(agg.values(), key=lambda r: -r["self"])


def render_report(records: Iterable[dict], *, top: int = 20) -> str:
    """Human-readable trace digest: hot spans, metrics, notable events."""
    records = list(records)
    rows = span_summary(spans_from_records(records))
    lines = ["Self-telemetry report", "=" * 60]
    lines.append(f"{'span':<36}{'calls':>6}{'self ms':>10}{'total ms':>10}"
                 f"{'cpu ms':>9}")
    for row in rows[:top]:
        lines.append(
            f"{row['name'][:36]:<36}{row['calls']:>6}"
            f"{row['self'] * 1e3:>10.2f}{row['wall'] * 1e3:>10.2f}"
            f"{row['cpu'] * 1e3:>9.2f}"
            + ("  !err" if row["errors"] else "")
        )
    if len(rows) > top:
        lines.append(f"... and {len(rows) - top} more span names")
    metric_rows = [r for r in records
                   if r.get("type") in ("counter", "gauge", "histogram")]
    if metric_rows:
        lines.append("")
        lines.append("metrics")
        lines.append("-" * 60)
        for r in metric_rows:
            if r["type"] == "histogram":
                lines.append(
                    f"{r['name']:<40} n={r['count']} mean={r['mean']:.3g} "
                    f"p50={r['p50']:.3g} p99={r['p99']:.3g}"
                )
            else:
                lines.append(f"{r['name']:<40} {r['value']:g}")
    n_events = sum(1 for r in records if r.get("type") == "event")
    if n_events:
        lines.append("")
        lines.append(f"{n_events} structured events "
                     "(export to JSONL/Chrome for the full stream)")
    return "\n".join(lines)


# -- application event traces ----------------------------------------------
def app_trace_to_chrome(trace, *, label: str = "simulated application") -> dict:
    """Render a :class:`repro.runtime.trace.EventTrace` of an *application*
    run as Chrome ``trace_event`` JSON — one process lane per CPU, named
    after its MPI rank (or OpenMP thread) when the trace identifies one.

    Region enter/exit become B/E duration events (category = TAU group),
    messages become flow arrows from the send to the wait that consumed
    them, and phase marks become global instants.
    """
    from ..runtime import trace as T

    rank_of = trace.rank_of_cpu()
    thread_of: dict[int, int] = {}
    for ev in trace.events:
        if ev.kind == T.FORK and ev.attrs and "thread" in ev.attrs:
            thread_of.setdefault(ev.cpu, ev.attrs["thread"])

    def pid_of(cpu: int) -> int:
        return cpu + 1

    def msg_id(src, dest, tag, ready_at) -> str:
        return f"{src}->{dest}:{tag}@{ready_at:.9e}"

    cpus = trace.cpu_ids()
    events: list[dict] = []
    for cpu in cpus:
        if cpu in rank_of:
            name = f"rank {rank_of[cpu]}"
        elif cpu in thread_of:
            name = f"thread {thread_of[cpu]}"
        else:
            name = f"cpu {cpu}"
        events.extend(_lane(pid_of(cpu), name, cpu))
    for ev in trace.events:
        ts = round(ev.ts * 1e6, 3)
        if ev.kind == T.ENTER:
            events.append({
                "name": ev.name, "cat": ev.get("group", "TAU_DEFAULT"),
                "ph": "B", "ts": ts, "pid": pid_of(ev.cpu), "tid": 0,
            })
        elif ev.kind == T.EXIT:
            events.append({
                "name": ev.name, "ph": "E", "ts": ts,
                "pid": pid_of(ev.cpu), "tid": 0,
            })
        elif ev.kind == T.SEND:
            events.append({
                "name": "message", "cat": "MPI_MSG", "ph": "s",
                "id": msg_id(ev.get("rank"), ev.get("dest"),
                             ev.get("tag", 0), ev.get("ready_at", 0.0)),
                "ts": ts, "pid": pid_of(ev.cpu), "tid": 0,
                "args": {"bytes": ev.get("bytes"), "dest": ev.get("dest")},
            })
        elif ev.kind == T.WAIT:
            end = ev.get("end", ev.ts)
            for req in ev.get("requests", ()):
                if req.get("kind") != "recv" or req.get("ready_at") is None:
                    continue
                events.append({
                    "name": "message", "cat": "MPI_MSG", "ph": "f",
                    "bp": "e",
                    "id": msg_id(req.get("partner"), ev.get("rank"),
                                 req.get("tag", 0), req["ready_at"]),
                    "ts": round(min(end, req["ready_at"]) * 1e6, 3),
                    "pid": pid_of(ev.cpu), "tid": 0,
                    "args": {"bytes": req.get("bytes")},
                })
        elif ev.kind == T.PHASE:
            events.append({
                "name": ev.name, "cat": "PHASE", "ph": "i", "ts": ts,
                "pid": pid_of(cpus[0]) if cpus else 1, "tid": 0, "s": "g",
                "args": {"index": ev.get("index")},
            })
    events.append({
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": label},
    })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_app_chrome_trace(trace, path: str | Path,
                           *, label: str = "simulated application") -> int:
    """Write an application event trace as Chrome JSON; returns the number
    of trace events emitted."""
    doc = app_trace_to_chrome(trace, label=label)
    Path(path).write_text(json.dumps(doc))
    return len(doc["traceEvents"])
