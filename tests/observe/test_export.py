"""Exporters: JSONL round-trip, Chrome trace_event structure, report."""

import json

import pytest

from repro import observe
from repro.observe import export as ex


def _sample_trace(traced):
    with observe.span("cli.run", argv="run-msa"):
        with observe.span("perfdmf.save_trial", rows=10):
            pass
        with observe.span("rules.run"):
            with observe.span("rules.cycle", cycle=1):
                pass
    observe.counter("rules.firings").inc(3)
    observe.histogram("rules.agenda_size").observe(2.0)
    observe.event("regress.gate", verdict="ok", exit_code=0)
    return traced


class TestJsonlRoundTrip:
    def test_write_read_identity(self, traced, tmp_path):
        _sample_trace(traced)
        path = tmp_path / "trace.jsonl"
        n = ex.write_jsonl(traced, path)
        records = ex.read_jsonl(path)
        assert len(records) == n
        assert records[0]["type"] == "meta"
        spans = ex.spans_from_records(records)
        assert [s["name"] for s in spans] == [
            "perfdmf.save_trial", "rules.cycle", "rules.run", "cli.run"]
        # structure survives: parent links resolve within the file
        ids = {s["span_id"] for s in spans}
        for s in spans:
            assert s["parent_id"] is None or s["parent_id"] in ids
        kinds = {r["type"] for r in records}
        assert {"meta", "span", "event", "counter", "histogram"} <= kinds

    def test_roundtrip_preserves_attributes(self, traced, tmp_path):
        _sample_trace(traced)
        path = tmp_path / "t.jsonl"
        ex.write_jsonl(traced, path)
        spans = ex.spans_from_records(ex.read_jsonl(path))
        save = next(s for s in spans if s["name"] == "perfdmf.save_trial")
        assert save["attrs"]["rows"] == 10


class TestSavedTraceBoundary:
    def test_old_span_record_names_its_line(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"type": "meta", "epoch": 0.0}\n'
            '{"type": "span", "id": 1, "parent": null, "name": "x", '
            '"start": 0.0, "wall": 1.0, "cpu": 0.5, "thread": 1}\n')
        with pytest.raises(ValueError, match=r"old\.jsonl:2: span record"):
            ex.read_jsonl(path)

    def test_mistyped_span_names_its_line(self, tmp_path):
        path = tmp_path / "typed.jsonl"
        path.write_text(
            '{"type": "span", "trace_id": "t", "span_id": "s", '
            '"parent_id": null, "name": "x", "start": "0", "end": 1.0, '
            '"process": "p", "attrs": null}\n')
        with pytest.raises(ValueError, match=r"typed\.jsonl:1: span record"):
            ex.read_jsonl(path)

    def test_garbage_line_names_its_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\n\n[1, 2]\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:3: not a JSON"):
            ex.read_jsonl(path)


class TestChromeTrace:
    def test_export_shape(self, traced, tmp_path):
        _sample_trace(traced)
        doc = ex.to_chrome(traced.finished(),
                           events=traced.events.records())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 4
        assert len(instants) == 1
        assert metas  # process/thread names present
        lanes = {e["pid"]: e["args"]["name"] for e in metas
                 if e["name"] == "process_name"}
        for e in complete:
            assert lanes[e["pid"]] == traced.process
            assert e["ts"] >= 0.0
            assert e["dur"] >= 0.0
            assert e["cat"] == e["name"].split(".", 1)[0]
            assert "span_id" in e["args"]

    def test_file_is_valid_json_and_loadable(self, traced, tmp_path):
        _sample_trace(traced)
        out = tmp_path / "chrome.json"
        n = ex.write_chrome(traced.finished(), out,
                            events=traced.events.records())
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == n

    def test_roundtrip_through_jsonl_file(self, traced, tmp_path):
        """JSONL written to disk converts to the same Chrome doc as the
        in-memory records — the `trace export` CLI path."""
        _sample_trace(traced)
        jsonl = tmp_path / "t.jsonl"
        ex.write_jsonl(traced, jsonl)
        records = ex.read_jsonl(jsonl)
        direct = ex.to_chrome(traced.finished(),
                              events=traced.events.records())
        via_file = ex.to_chrome(ex.spans_from_records(records),
                                events=ex.events_from_records(records))
        assert json.loads(json.dumps(direct)) == via_file

    def test_error_span_marked(self, traced):
        try:
            with observe.span("doomed"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        doc = ex.to_chrome(traced.finished())
        doomed = next(e for e in doc["traceEvents"] if e["name"] == "doomed")
        assert "error" in doomed["args"]


class TestReport:
    def test_summary_self_vs_total(self, traced):
        _sample_trace(traced)
        rows = ex.span_summary(traced.finished())
        by_name = {r["name"]: r for r in rows}
        cli = by_name["cli.run"]
        assert cli["calls"] == 1
        # self time excludes the two direct children
        assert cli["self"] <= cli["wall"]
        assert by_name["rules.cycle"]["wall"] <= by_name["rules.run"]["wall"]

    def test_render_contains_spans_and_metrics(self, traced):
        _sample_trace(traced)
        text = ex.render_report(ex.to_jsonl_records(traced))
        assert "cli.run" in text
        assert "rules.firings" in text
        assert "rules.agenda_size" in text
        assert "structured events" in text
