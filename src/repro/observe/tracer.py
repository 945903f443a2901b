"""Hierarchical spans over the analysis stack's own execution.

A :class:`Span` measures one region of *our* pipeline (a PerfDMF store, a
rule-engine cycle, one analysis operation) exactly the way TAU measures an
application region: wall time, CPU time, call nesting, and attributes.
Each finished span accumulates on the :class:`Tracer` as a timeline span,
the :func:`~repro.observe.context.make_span` dict every exporter, the
service's job stitching and the dogfood bridge back into PerfDMF consume.

Durations come from ``perf_counter``; both ends are placed on the wall
clock as ``epoch + offset``, so nested spans stay nested exactly.  Nesting
is tracked per OS thread with a ``threading.local`` stack, so concurrent
analyses interleave without corrupting each other's callpaths.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

from .context import TraceContext
from .events import EventLog
from .metrics import MetricsRegistry


class Span:
    """Context manager measuring one region; exception-safe.

    Attributes set through :meth:`set` ride along on the finished span;
    an exception inside the ``with`` marks the span ``status="error"`` and
    re-raises — telemetry never swallows failures.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attributes",
                 "_start_perf", "_start_cpu")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self._start_perf = 0.0
        self._start_cpu = 0.0

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes on the live span."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        stack = tracer._stack()
        self.parent_id = (stack[-1].span_id if stack
                          else tracer.context.parent_span_id)
        stack.append(self)
        self._start_perf = time.perf_counter()
        self._start_cpu = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_perf = time.perf_counter()
        cpu = time.thread_time() - self._start_cpu
        tracer = self._tracer
        stack = tracer._stack()
        # pop ourselves even if an inner span leaked (exception unwinding)
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        attrs = self.attributes
        attrs["cpu_ms"] = cpu * 1e3
        attrs["status"] = "ok" if exc_type is None else "error"
        if exc_type is not None:
            attrs["error"] = f"{exc_type.__name__}: {exc}"
        attrs["thread"] = threading.get_ident()
        base = tracer.epoch - tracer._epoch_perf
        tracer._finish({
            "trace_id": tracer.context.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": base + self._start_perf,
            "end": base + end_perf,
            "process": tracer.process,
            "attrs": attrs,
        })
        return False  # never swallow the exception


class _NoopSpan:
    """The disabled-mode stand-in: every operation is a constant no-op."""

    __slots__ = ()
    name = "noop"
    span_id = None
    parent_id = None

    def set(self, **attributes) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans, metrics, and events for one observed run.

    ``context`` supplies the trace id every span carries and the parent of
    this tracer's root spans; a fresh tracer mints its own.  A process
    worker replaces it with the context it was handed, and ``process``
    with its worker name, so its spans stitch under the service's.
    """

    def __init__(self, *, max_spans: int = 200_000) -> None:
        self.metrics = MetricsRegistry()
        self.events = EventLog()
        self._spans: list[dict] = []
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self.reset()

    # -- span lifecycle ----------------------------------------------------
    def span(self, name: str, **attributes) -> Span:
        return Span(self, name, attributes)

    def _next_id(self) -> str:
        # a random per-reset prefix keeps ids unique across the fresh
        # tracers one trace may see (e.g. the attempts of a retried job)
        return f"{self._id_prefix}{next(self._ids):08x}"

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span: dict) -> None:
        with self._lock:
            if len(self._spans) >= self._max_spans:
                self.dropped_spans += 1
            else:
                self._spans.append(span)

    # -- introspection -----------------------------------------------------
    def current_span(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_span_id(self) -> str | None:
        span = self.current_span()
        return span.span_id if span else None

    def finished(self) -> list[dict]:
        """Finished spans in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped_spans = 0
            self._ids = itertools.count(1)
            self._id_prefix = os.urandom(4).hex()
        self._local = threading.local()
        self.metrics.clear()
        self.events.clear()
        self.context = TraceContext.mint()
        self.process = f"pid-{os.getpid()}"
        #: Wall-clock epoch of this tracer (time.time seconds).
        self.epoch = time.time()
        self._epoch_perf = time.perf_counter()
