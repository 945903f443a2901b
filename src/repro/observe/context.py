"""Trace context and the timeline span: the one span shape of the stack.

The analysis service spans *three* processes (client, service, worker
child), plus a socket and a pipe in between.  A :class:`TraceContext` is
minted where a request is born and rides the JSON-lines protocol as
``{"trace_id", "parent_span_id"}`` (or a ``traceparent`` header string).
Every hop records *timeline spans*: plain JSON dicts with 16-hex-char ids
and ``time.time()`` start/end seconds (:func:`make_span`), which stitch
back into one per-job timeline no matter which process produced them.

The in-process :class:`~repro.observe.tracer.Tracer` records the same
dicts, taking its trace id and root parent from its own context, so the
exporters, the service and the PerfDMF bridge all read one shape.  Wall
clocks across local processes agree to well under a millisecond, which
is plenty for queue-wait/exec attribution; within one tracer the spans'
ends come from ``perf_counter``, so nesting is exact.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = [
    "TraceContext",
    "coverage",
    "make_span",
    "new_span_id",
    "new_trace_id",
    "orphan_spans",
]

_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$"
)
_NO_PARENT = "0" * 16


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (128 random bits)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-char span id (64 random bits)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One hop's view of a distributed trace.

    ``trace_id`` names the whole request; ``parent_span_id`` is the span
    the *next* hop should hang its work under (None at the root).
    """

    trace_id: str
    parent_span_id: str | None = None

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[0-9a-f]{32}", self.trace_id or ""):
            raise ValueError(
                f"trace_id must be 32 lowercase hex chars, "
                f"got {self.trace_id!r}"
            )
        if self.parent_span_id is not None and not re.fullmatch(
            r"[0-9a-f]{16}", self.parent_span_id
        ):
            raise ValueError(
                f"parent_span_id must be 16 lowercase hex chars, "
                f"got {self.parent_span_id!r}"
            )

    @classmethod
    def mint(cls) -> "TraceContext":
        """A brand-new root context (what ``Client.submit`` creates)."""
        return cls(trace_id=new_trace_id())

    def child(self, span_id: str) -> "TraceContext":
        """The context the next hop receives: same trace, new parent."""
        return TraceContext(trace_id=self.trace_id, parent_span_id=span_id)

    # -- wire forms --------------------------------------------------------
    def to_traceparent(self) -> str:
        """W3C ``traceparent`` header form: ``00-<trace>-<parent>-01``."""
        return f"00-{self.trace_id}-{self.parent_span_id or _NO_PARENT}-01"

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext":
        m = _TRACEPARENT_RE.match(header.strip().lower())
        if m is None:
            raise ValueError(f"malformed traceparent {header!r}")
        parent = m.group(2)
        return cls(
            trace_id=m.group(1),
            parent_span_id=None if parent == _NO_PARENT else parent,
        )

    def to_wire(self) -> dict[str, Any]:
        """The JSON-protocol form (`submit`'s ``trace`` field)."""
        wire: dict[str, Any] = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            wire["parent_span_id"] = self.parent_span_id
        return wire

    @classmethod
    def from_wire(cls, obj: Any) -> "TraceContext":
        """Coerce any accepted wire shape — a :class:`TraceContext`, a
        ``{"trace_id", "parent_span_id"}`` dict, or a ``traceparent``
        string — raising :class:`ValueError` on anything malformed."""
        if isinstance(obj, TraceContext):
            return obj
        if isinstance(obj, str):
            return cls.from_traceparent(obj)
        if isinstance(obj, dict):
            return cls(
                trace_id=str(obj.get("trace_id", "")),
                parent_span_id=obj.get("parent_span_id") or None,
            )
        raise ValueError(f"cannot build a TraceContext from {type(obj)!r}")


def make_span(
    trace_id: str,
    name: str,
    start: float,
    end: float,
    *,
    parent_id: str | None = None,
    process: str = "service",
    span_id: str | None = None,
    **attrs: Any,
) -> dict[str, Any]:
    """One timeline span: wall-clock ``time.time()`` start/end seconds.

    Returns the plain-JSON shape every hop appends and the exporters
    consume: ``{trace_id, span_id, parent_id, name, start, end, process,
    attrs}``.
    """
    return {
        "trace_id": trace_id,
        "span_id": span_id or new_span_id(),
        "parent_id": parent_id,
        "name": name,
        "start": float(start),
        "end": float(max(end, start)),
        "process": process,
        "attrs": attrs,
    }


def orphan_spans(spans: Iterable[dict]) -> list[dict]:
    """Spans whose parent is neither None nor present in the set — a
    stitched timeline must return ``[]`` here."""
    spans = list(spans)
    ids = {s["span_id"] for s in spans}
    return [
        s for s in spans
        if s.get("parent_id") is not None and s["parent_id"] not in ids
    ]


def coverage(spans: Iterable[dict], start: float, end: float) -> float:
    """Fraction of ``[start, end]`` covered by the union of the spans'
    intervals (overlaps merged).  The ≥95 % acceptance gate for stitched
    job timelines runs on exactly this."""
    window = end - start
    if window <= 0:
        return 1.0
    intervals = sorted(
        (max(float(s["start"]), start), min(float(s["end"]), end))
        for s in spans
        if float(s["end"]) > start and float(s["start"]) < end
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered / window
