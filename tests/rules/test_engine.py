"""Tests for working memory, agenda ordering, and the match-fire loop."""

import pytest

from repro.rules import (
    Fact,
    RuleBuilder,
    RuleEngine,
    RuleEngineError,
    WorkingMemory,
)


def _log_rule(name, fact_type, salience=0, **header):
    return (
        RuleBuilder(name, salience=salience, **header)
        .when("f", fact_type)
        .then_log(name)
        .build()
    )


class TestWorkingMemory:
    def test_assert_and_query(self):
        wm = WorkingMemory()
        wm.assert_fact(Fact("A", x=1))
        wm.assert_fact(Fact("B", x=2))
        assert len(wm) == 2
        assert [f["x"] for f in wm.facts_of_type("A")] == [1]
        assert wm.types() == ["A", "B"]

    def test_retract_and_sweep(self):
        wm = WorkingMemory()
        h = wm.assert_fact(Fact("A"))
        wm.assert_fact(Fact("A"))
        wm.retract(h)
        assert len(wm) == 1
        assert wm.sweep() == 1
        assert len(wm.of_type("A")) == 1

    def test_retract_idempotent(self):
        wm = WorkingMemory()
        h = wm.assert_fact(Fact("A"))
        wm.retract(h)
        wm.retract(h)
        assert len(wm) == 0

    def test_clear(self):
        wm = WorkingMemory()
        wm.extend([Fact("A"), Fact("B")])
        wm.clear()
        assert len(wm) == 0 and wm.types() == []


class TestEngineBasics:
    def test_single_rule_fires_once_per_fact(self):
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("hot", doc="find hot events")
            .when("f", "Event", ("sev", ">", 0.1), "n := name")
            .then_log("hot event {n} sev={f.sev}")
            .build()
        )
        eng.insert("Event", name="a", sev=0.5)
        eng.insert("Event", name="b", sev=0.05)
        eng.insert("Event", name="c", sev=0.2)
        fired = eng.run()
        assert fired == 2
        assert any("hot event a" in line for line in eng.output)
        assert any("hot event c" in line for line in eng.output)
        assert not any("hot event b" in line for line in eng.output)

    def test_refraction_across_runs(self):
        eng = RuleEngine()
        eng.add_rule(_log_rule("r", "A"))
        eng.insert("A")
        assert eng.run() == 1
        assert eng.run() == 0  # same fact: refracted
        eng.insert("A")
        assert eng.run() == 1  # new fact: fires again

    def test_salience_orders_firing(self):
        order = []
        eng = RuleEngine()
        for name, sal in [("low", 1), ("high", 10), ("mid", 5)]:
            eng.add_rule(
                RuleBuilder(name, salience=sal)
                .when("f", "A")
                .then(lambda ctx, n=name: order.append(n))
                .build()
            )
        eng.insert("A")
        eng.run()
        assert order == ["high", "mid", "low"]

    def test_chaining_rules(self):
        """Rule 1 asserts a derived fact; rule 2 fires on it."""
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("classify")
            .when("f", "Event", ("sev", ">", 0.25), "n := name")
            .then(lambda ctx: ctx.insert("HotSpot", event=ctx["n"]))
            .build()
        )
        eng.add_rule(
            RuleBuilder("recommend")
            .when("h", "HotSpot", "e := event")
            .then_log("optimize {e}")
            .build()
        )
        eng.insert("Event", name="matxvec", sev=0.4)
        eng.run()
        assert [f["event"] for f in eng.facts("HotSpot")] == ["matxvec"]
        assert any("optimize matxvec" in line for line in eng.output)

    def test_join_two_patterns_with_variable(self):
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("nested-imbalance")
            .when("p", "Event", "pn := name", ("imbalanced", "==", True))
            .when("c", "Event", "cn := name", ("imbalanced", "==", True),
                  ("parent", "==", "$pn"))
            .then_log("{cn} nested under {pn}")
            .build()
        )
        eng.insert("Event", name="outer", parent=None, imbalanced=True)
        eng.insert("Event", name="inner", parent="outer", imbalanced=True)
        eng.insert("Event", name="other", parent="main", imbalanced=True)
        eng.run()
        assert eng.output == ["[nested-imbalance] inner nested under outer"]

    def test_one_fact_cannot_fill_two_positions(self):
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("pair")
            .when("a", "E")
            .when("b", "E")
            .then_log("pair")
            .build()
        )
        eng.insert("E")
        assert eng.run() == 0
        eng.insert("E")
        # two facts → 2 ordered pairs
        assert eng.run() == 2

    def test_negated_pattern(self):
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("no-baseline")
            .when("t", "Trial", "n := name")
            .when_not("Baseline", ("trial", "==", "$n"))
            .then_log("trial {n} lacks a baseline")
            .build()
        )
        eng.insert("Trial", name="t1")
        eng.insert("Trial", name="t2")
        eng.insert("Baseline", trial="t1")
        eng.run()
        assert eng.output == ["[no-baseline] trial t2 lacks a baseline"]

    def test_test_condition(self):
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("ratio")
            .when("a", "M", "x := value", ("name", "==", "stalls"))
            .when("b", "M", "y := value", ("name", "==", "cycles"))
            .test(lambda b: b["y"] > 0 and b["x"] / b["y"] > 0.5, "stall ratio > .5")
            .then_log("stall-bound")
            .build()
        )
        eng.insert("M", name="stalls", value=60.0)
        eng.insert("M", name="cycles", value=100.0)
        assert eng.run() == 1

    def test_modify_retriggers(self):
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("hot").when("f", "E", ("sev", ">", 0.5)).then_log("hot").build()
        )
        h = eng.insert("E", sev=0.1)
        assert eng.run() == 0
        h2 = eng.modify(h, sev=0.9)
        assert not h.live and h2.live
        assert eng.run() == 1

    def test_modify_retracted_fact_raises(self):
        eng = RuleEngine()
        h = eng.insert("E", sev=0.1)
        eng.retract(h)
        with pytest.raises(RuleEngineError):
            eng.modify(h, sev=0.2)

    def test_runaway_rulebase_detected(self):
        eng = RuleEngine(max_firings=50)
        eng.add_rule(
            RuleBuilder("loop")
            .when("f", "A")
            .then(lambda ctx: ctx.insert("A"))
            .build()
        )
        eng.insert("A")
        with pytest.raises(RuleEngineError, match="exceeded"):
            eng.run()

    def test_no_loop_suppresses_self_activation(self):
        eng = RuleEngine(max_firings=50)
        eng.add_rule(
            RuleBuilder("grow", no_loop=True)
            .when("f", "A")
            .then(lambda ctx: ctx.insert("A", derived=True))
            .build()
        )
        eng.insert("A")
        assert eng.run() == 1
        assert len(eng.facts("A")) == 2

    def test_duplicate_rule_name_rejected(self):
        eng = RuleEngine()
        eng.add_rule(_log_rule("r", "A"))
        with pytest.raises(RuleEngineError, match="duplicate"):
            eng.add_rule(_log_rule("r", "B"))

    def test_reset(self):
        eng = RuleEngine()
        eng.add_rule(_log_rule("r", "A"))
        eng.insert("A")
        eng.run()
        eng.reset()
        assert len(eng.memory) == 0 and eng.output == [] and eng.trace == []
        eng.insert("A")
        assert eng.run() == 1  # refraction history was cleared

    def test_trace_records_firings(self):
        eng = RuleEngine()
        eng.add_rule(_log_rule("r", "A"))
        eng.insert("A")
        eng.run()
        assert len(eng.trace) == 1
        assert eng.trace[0].rule_name == "r"
        assert eng.explain()[0].startswith("cycle 1: r fired")

    def test_retract_in_action_kills_pending_activation(self):
        eng = RuleEngine()

        def kill(ctx):
            # retract the fact matched by the *other* pending activation
            for h in list(ctx._engine.memory):
                if h.fact.get("victim"):
                    ctx.retract(h)

        eng.add_rule(
            RuleBuilder("killer", salience=10).when("f", "A", ("victim", "==", False)).then(kill).build()
        )
        eng.add_rule(
            RuleBuilder("target").when("f", "A", ("victim", "==", True)).then_log("fired").build()
        )
        eng.insert("A", victim=False)
        eng.insert("A", victim=True)
        eng.run()
        assert eng.output == []  # target's activation died before firing
