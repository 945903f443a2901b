"""max_cycles truncation must be visible, not mistaken for quiescence."""

from repro.core.harness import RuleHarness
from repro.rules import Fact, RuleBuilder, RuleEngine


def _chain_rules(depth):
    """Rules that assert F1 -> F2 -> ... -> F<depth>, one per cycle."""
    rules = []
    for i in range(1, depth):
        rules.append(
            RuleBuilder(f"step{i}", no_loop=True)
            .when("f", f"F{i}")
            .then(lambda ctx, derived=f"F{i + 1}": ctx.insert(derived))
            .build()
        )
    return rules


class TestTruncationMarker:
    def test_quiescent_run_not_truncated(self):
        engine = RuleEngine()
        engine.add_rules(_chain_rules(4))
        engine.assert_fact(Fact("F1"))
        engine.run()
        assert engine.truncated is False
        assert not any("TRUNCATED" in line for line in engine.explain())

    def test_max_cycles_mid_cascade_sets_flag(self):
        engine = RuleEngine()
        engine.add_rules(_chain_rules(6))
        engine.assert_fact(Fact("F1"))
        engine.run(max_cycles=2)
        # the cascade had more to do: F3 was just asserted and step3 never ran
        assert engine.truncated is True
        assert engine.facts("F3") and not engine.facts("F4")
        marker = [l for l in engine.explain() if "TRUNCATED" in l]
        assert len(marker) == 1
        assert "did NOT reach quiescence" in marker[0]

    def test_generous_max_cycles_not_truncated(self):
        engine = RuleEngine()
        engine.add_rules(_chain_rules(4))
        engine.assert_fact(Fact("F1"))
        engine.run(max_cycles=50)
        assert engine.truncated is False

    def test_followup_run_drains_and_clears_flag(self):
        engine = RuleEngine()
        engine.add_rules(_chain_rules(6))
        engine.assert_fact(Fact("F1"))
        engine.run(max_cycles=2)
        assert engine.truncated
        engine.run()  # to quiescence
        assert engine.truncated is False
        assert engine.facts("F6")
        assert not any("TRUNCATED" in line for line in engine.explain())

    def test_reset_clears_flag(self):
        engine = RuleEngine()
        engine.add_rules(_chain_rules(6))
        engine.assert_fact(Fact("F1"))
        engine.run(max_cycles=2)
        engine.reset()
        assert engine.truncated is False


class TestEchoThroughEventLog:
    def test_echo_routes_through_console_sink(self):
        from repro import observe

        captured = []
        sink = observe.get_tracer().events.console_sink
        observe.get_tracer().events.console_sink = captured.append
        try:
            engine = RuleEngine(echo=True)
            engine.add_rule(
                RuleBuilder("noisy").when("f", "A").then_log("hello").build())
            engine.assert_fact(Fact("A"))
            engine.run()
        finally:
            observe.get_tracer().events.console_sink = sink
        assert captured == ["[noisy] hello"]
        # the scripted API is unchanged
        assert engine.output == ["[noisy] hello"]

    def test_no_echo_no_console(self):
        from repro import observe

        captured = []
        sink = observe.get_tracer().events.console_sink
        observe.get_tracer().events.console_sink = captured.append
        try:
            engine = RuleEngine(echo=False)
            engine.add_rule(
                RuleBuilder("quiet").when("f", "A").then_log("shh").build())
            engine.assert_fact(Fact("A"))
            engine.run()
        finally:
            observe.get_tracer().events.console_sink = sink
        assert captured == []
        assert engine.output == ["[quiet] shh"]

    def test_harness_echo_passthrough(self):
        from repro import observe

        captured = []
        sink = observe.get_tracer().events.console_sink
        observe.get_tracer().events.console_sink = captured.append
        try:
            harness = RuleHarness(
                RuleBuilder("h").when("f", "A").then_log("via harness").build(),
                echo=True,
            )
            harness.assertObject(Fact("A"))
            harness.processRules()
        finally:
            observe.get_tracer().events.console_sink = sink
        assert captured == ["[h] via harness"]
