"""Instrumentation woven through the stack actually produces telemetry."""

from repro import observe
from repro.core.operations.statistics import BasicStatisticsOperation
from repro.core.result import PerformanceResult
from repro.perfdmf import PerfDMF, TrialBuilder


def _tiny_trial(name="t1"):
    return (TrialBuilder(name).with_events(["main", "work"]).with_threads(2)
            .with_metric("TIME", [[10.0, 11.0], [5.0, 5.0]],
                         [[20.0, 20.0], [5.0, 5.0]])
            .with_calls([[1.0, 1.0], [3.0, 3.0]])
            .build())


class TestOperationSpans:
    def test_one_span_per_operation_with_shapes(self, traced):
        op = BasicStatisticsOperation(PerformanceResult(_tiny_trial()))
        op.process_data()
        spans = [r for r in traced.finished()
                 if r["name"] == "operation.BasicStatisticsOperation"]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["inputs"] == 1
        assert attrs["events"] == 2
        assert attrs["threads"] == 2
        assert attrs["outputs"] == len(op.outputs)

    def test_camelcase_alias_also_traced(self, traced):
        op = BasicStatisticsOperation(PerformanceResult(_tiny_trial()))
        op.processData()
        assert any(r["name"].startswith("operation.")
                   for r in traced.finished())


class TestPerfDMFSpans:
    def test_save_and_load_spans_and_counters(self, traced):
        with PerfDMF() as db:
            db.save_trial("app", "exp", _tiny_trial())
            db.load_trial("app", "exp", "t1")
        names = [r["name"] for r in traced.finished()]
        assert "perfdmf.save_trial" in names
        assert "perfdmf.load_trial" in names
        save = next(r for r in traced.finished()
                    if r["name"] == "perfdmf.save_trial")
        assert save["attrs"]["events"] == 2
        assert save["attrs"]["threads"] == 2
        assert "trial_id" in save["attrs"]
        metrics = {m["name"]: m for m in traced.metrics.snapshot()}
        assert metrics["perfdmf.stmt.insert"]["value"] >= 1
        assert metrics["perfdmf.rows.insert"]["value"] >= 4
        assert metrics["perfdmf.rows.select"]["value"] >= 1


class TestRuleEngineTelemetry:
    def test_run_and_cycle_spans_with_metrics(self, traced):
        from repro.rules import Fact, RuleBuilder, RuleEngine

        engine = RuleEngine()
        engine.add_rule(
            RuleBuilder("seed", no_loop=True)
            .when("f", "A")
            .then(lambda ctx: ctx.insert("B", src=ctx["f"]))
            .build()
        )
        engine.add_rule(
            RuleBuilder("sink").when("b", "B").then_log("saw B").build()
        )
        engine.assert_fact(Fact("A"))
        fired = engine.run()
        assert fired == 2
        names = [r["name"] for r in traced.finished()]
        assert "rules.run" in names
        assert names.count("rules.cycle") >= 2
        run_span = next(r for r in traced.finished()
                        if r["name"] == "rules.run")
        assert run_span["attrs"]["firings"] == 2
        assert run_span["attrs"]["truncated"] is False
        metrics = {m["name"]: m for m in traced.metrics.snapshot()}
        assert metrics["rules.firings"]["value"] == 2
        assert metrics["rules.agenda_size"]["count"] >= 1
        # firing records link back to their cycle spans
        cycle_ids = {r["span_id"] for r in traced.finished()
                     if r["name"] == "rules.cycle"}
        for rec in engine.trace:
            assert rec.span_id in cycle_ids

    def test_rule_output_becomes_structured_event(self, traced):
        from repro.rules import Fact, RuleBuilder, RuleEngine

        engine = RuleEngine()
        engine.add_rule(
            RuleBuilder("diag").when("f", "A").then_log("found it").build())
        engine.assert_fact(Fact("A"))
        engine.run()
        assert engine.output == ["[diag] found it"]
        events = [e for e in traced.events.records()
                  if e["name"] == "rule.output"]
        assert len(events) == 1
        assert events[0]["rule"] == "diag"
        assert events[0]["message"] == "found it"


class TestGateEvents:
    def test_regression_gate_emits_decision_event(self, traced):
        from repro.workflows import regression_gate

        with PerfDMF() as db:
            first = regression_gate(
                _tiny_trial("run1"), repository=db,
                application="app", experiment="exp", diagnose=False)
            assert first.verdict == "baseline-created"
            second = regression_gate(
                _tiny_trial("run2"), repository=db,
                application="app", experiment="exp", diagnose=False)
        gates = [e for e in traced.events.records()
                 if e["name"] == "regress.gate"]
        assert len(gates) == 2
        assert gates[0]["verdict"] == "baseline-created"
        assert gates[1]["verdict"] == second.verdict
        assert "total_relative_change" in gates[1]
