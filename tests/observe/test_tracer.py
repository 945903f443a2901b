"""Span lifecycle: nesting, attributes, exception safety, threading."""

import re
import threading

import pytest

from repro import observe
from repro.observe import TraceContext, Tracer, coverage, orphan_spans
from repro.observe.export import SPAN_KEYS


class TestSpanNesting:
    def test_parent_child_linkage(self, traced):
        with observe.span("outer") as outer:
            with observe.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        records = traced.finished()
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner_rec, outer_rec = records
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert outer_rec["parent_id"] is None

    def test_sibling_spans_share_parent(self, traced):
        with observe.span("root") as root:
            with observe.span("a"):
                pass
            with observe.span("b"):
                pass
        a, b = traced.finished()[0], traced.finished()[1]
        assert a["parent_id"] == root.span_id
        assert b["parent_id"] == root.span_id

    def test_durations_nonnegative_and_ordered(self, traced):
        with observe.span("outer"):
            with observe.span("inner"):
                sum(range(1000))
        inner, outer = traced.finished()
        assert inner["end"] - inner["start"] >= 0.0
        assert (outer["end"] - outer["start"]
                >= inner["end"] - inner["start"])
        assert inner["start"] >= outer["start"]

    def test_attributes_at_open_and_set(self, traced):
        with observe.span("s", shape=(3, 4)) as sp:
            sp.set(rows=12)
        rec = traced.finished()[0]
        assert rec["attrs"]["shape"] == (3, 4)
        assert rec["attrs"]["rows"] == 12

    def test_current_span_id_tracks_stack(self, traced):
        assert observe.current_span_id() is None
        with observe.span("outer") as outer:
            assert observe.current_span_id() == outer.span_id
            with observe.span("inner") as inner:
                assert observe.current_span_id() == inner.span_id
            assert observe.current_span_id() == outer.span_id
        assert observe.current_span_id() is None


class TestTimelineShape:
    def test_finished_spans_are_timeline_spans(self, traced):
        with observe.span("outer"):
            assert len(observe.current_span_id()) == 16
            with observe.span("inner"):
                pass
        spans = traced.finished()
        for s in spans:
            assert tuple(s) == SPAN_KEYS
            assert re.fullmatch("[0-9a-f]{16}", s["span_id"])
            assert s["trace_id"] == traced.context.trace_id
            assert s["process"] == traced.process
            assert {"cpu_ms", "status", "thread"} <= set(s["attrs"])
        # the context helpers take the tracer's output as it is
        assert orphan_spans(spans) == []
        outer = spans[-1]
        assert coverage(spans, outer["start"], outer["end"]) == 1.0

    def test_roots_hang_under_the_tracer_context(self):
        tracer = Tracer()
        tracer.context = TraceContext("ab" * 16, "cd" * 8)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        child, root = tracer.finished()
        assert root["parent_id"] == "cd" * 8
        assert child["parent_id"] == root["span_id"]
        assert {child["trace_id"], root["trace_id"]} == {"ab" * 16}

    def test_ids_unique_across_fresh_tracers(self):
        tracer = Tracer()
        ids = []
        for _ in range(2):
            tracer.reset()
            with tracer.span("s"):
                pass
            ids.append(tracer.finished()[0]["span_id"])
        assert ids[0] != ids[1]


class TestExceptionSafety:
    def test_error_status_and_reraise(self, traced):
        with pytest.raises(ValueError, match="boom"):
            with observe.span("failing"):
                raise ValueError("boom")
        rec = traced.finished()[0]
        assert rec["attrs"]["status"] == "error"
        assert "ValueError: boom" == rec["attrs"]["error"]

    def test_stack_unwinds_through_exception(self, traced):
        with pytest.raises(RuntimeError):
            with observe.span("outer"):
                with observe.span("inner"):
                    raise RuntimeError("die")
        # both spans closed; stack is empty again
        assert observe.current_span_id() is None
        assert [r["attrs"]["status"] for r in traced.finished()] == [
            "error", "error"]

    def test_ok_span_after_exception(self, traced):
        with pytest.raises(RuntimeError):
            with observe.span("bad"):
                raise RuntimeError
        with observe.span("good") as sp:
            pass
        rec = traced.finished()[-1]
        assert rec["attrs"]["status"] == "ok"
        assert rec["parent_id"] is None  # exception did not corrupt the stack


class TestThreading:
    def test_per_thread_stacks(self, traced):
        """Spans on different threads never become each other's parents."""
        errors = []

        def work(tag):
            try:
                with observe.span(f"thread.{tag}"):
                    for _ in range(10):
                        with observe.span(f"inner.{tag}"):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        records = traced.finished()
        by_id = {r["span_id"]: r for r in records}
        for r in records:
            if r["parent_id"] is not None:
                parent = by_id[r["parent_id"]]
                assert parent["attrs"]["thread"] == r["attrs"]["thread"]
                assert parent["name"].endswith(r["name"].split(".")[-1])


class TestTracerBounds:
    def test_max_spans_drops_not_grows(self):
        tracer = Tracer(max_spans=5)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished()) == 5
        assert tracer.dropped_spans == 5

    def test_reset_clears_everything(self, traced):
        with observe.span("s"):
            pass
        observe.counter("c").inc()
        observe.event("e", k=1)
        traced.reset()
        assert traced.finished() == []
        assert traced.metrics.snapshot() == []
        assert traced.events.records() == []
