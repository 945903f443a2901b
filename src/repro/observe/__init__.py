"""``repro.observe`` — self-telemetry for the analysis stack.

The reproduction diagnoses *other* programs' performance; this package
turns the same lens on the pipeline itself: hierarchical spans
(:mod:`.tracer`), process-wide metrics (:mod:`.metrics`), a structured
event log (:mod:`.events`), exporters to JSONL and Chrome ``trace_event``
JSON (:mod:`.export`), and a dogfood bridge that stores a traced run as a
PerfDMF trial (:mod:`.bridge`) so the rulebase and regression sentinel can
analyze the analyzer.

Design rule: **disabled is the default and costs ~a global flag check.**
Instrumentation sites call :func:`span` / :func:`event` / :func:`counter`
unconditionally; while disabled these return shared no-op singletons and
record nothing.  Enable with :func:`enable`, the ``repro-perf trace`` CLI
verb, or the ``REPRO_OBSERVE=1`` environment variable.

Usage::

    from repro import observe

    with observe.span("perfdmf.save_trial", application=app) as sp:
        ...
        sp.set(rows=n_rows)
    observe.counter("perfdmf.stmt.insert").inc(n_rows)
    observe.event("regress.gate", verdict="ok")
"""

from __future__ import annotations

import os

from .context import (
    TraceContext,
    coverage,
    make_span,
    new_span_id,
    new_trace_id,
    orphan_spans,
)
from .events import EventLog
from .metrics import (
    NOOP_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracer import NOOP_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "counter",
    "coverage",
    "current_span_id",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "get_tracer",
    "histogram",
    "make_span",
    "new_span_id",
    "new_trace_id",
    "orphan_spans",
    "echo",
    "span",
]

#: The process-global tracer; always exists so `get_tracer()` is total.
_tracer = Tracer()
_enabled = os.environ.get("REPRO_OBSERVE", "") not in ("", "0", "false", "no")


def enabled() -> bool:
    """Is telemetry collection on?"""
    return _enabled


def enable(*, fresh: bool = False) -> Tracer:
    """Turn collection on; ``fresh=True`` also resets the tracer.

    Returns the active tracer.
    """
    global _enabled
    if fresh:
        _tracer.reset()
    _enabled = True
    return _tracer


def disable() -> None:
    """Turn collection off; already-collected data stays readable."""
    global _enabled
    _enabled = False


def get_tracer() -> Tracer:
    """The process-global tracer (its data survives disable())."""
    return _tracer


def span(name: str, **attributes):
    """A context-managed span, or the shared no-op when disabled."""
    if not _enabled:
        return NOOP_SPAN
    return _tracer.span(name, **attributes)


def event(name: str, **fields) -> None:
    """Record a structured event (dropped silently when disabled)."""
    if _enabled:
        _tracer.events.emit(name, **fields)


def counter(name: str):
    return _tracer.metrics.counter(name) if _enabled else NOOP_INSTRUMENT


def gauge(name: str):
    return _tracer.metrics.gauge(name) if _enabled else NOOP_INSTRUMENT


def histogram(name: str):
    return _tracer.metrics.histogram(name) if _enabled else NOOP_INSTRUMENT


def current_span_id() -> str | None:
    """Id of the innermost open span on this thread (None when disabled
    or outside any span) — what trace-linked records store."""
    if not _enabled:
        return None
    return _tracer.current_span_id()


def echo(line: str) -> None:
    """Write a user-facing line through the event log's console sink.

    Works whether or not collection is enabled — this is the sanctioned
    replacement for bare ``print`` in echo paths, so tests and the CLI
    can capture or redirect rule chatter.
    """
    _tracer.events.console(line)
