"""Tests for explanation chains (engine.why / harness.why)."""

import pytest

from repro.core import RuleHarness
from repro.rules import Fact, RuleBuilder, RuleEngine


def chain_engine():
    """A 3-level rulebase: Event → HotSpot → Recommendation."""
    eng = RuleEngine()
    eng.add_rule(
        RuleBuilder("classify", salience=10)
        .when("e", "Event", ("sev", ">", 0.2), "n := name")
        .then(lambda ctx: ctx.insert("HotSpot", event=ctx["n"]))
        .build()
    )
    eng.add_rule(
        RuleBuilder("recommend")
        .when("h", "HotSpot", "e := event")
        .then(lambda ctx: ctx.insert("Recommendation", category="hot",
                                     event=ctx["e"]))
        .build()
    )
    return eng


class TestProvenance:
    def test_firing_records_asserted_seqs(self):
        eng = chain_engine()
        eng.insert("Event", name="matxvec", sev=0.5)
        eng.run()
        classify = next(r for r in eng.trace if r.rule_name == "classify")
        assert len(classify.asserted_seqs) == 1
        hotspot_handle = eng.memory.of_type("HotSpot")[0]
        assert classify.asserted_seqs[0] == hotspot_handle.seq

    def test_provenance_of_input_fact_is_none(self):
        eng = chain_engine()
        h = eng.insert("Event", name="x", sev=0.9)
        eng.run()
        assert eng.provenance_of(h.seq) is None

    def test_why_walks_the_chain(self):
        eng = chain_engine()
        eng.insert("Event", name="matxvec", sev=0.5)
        eng.run()
        rec = eng.facts("Recommendation")[0]
        lines = eng.why(rec)
        text = "\n".join(lines)
        assert "asserted by rule 'recommend'" in text
        assert "asserted by rule 'classify'" in text
        assert "asserted by the analysis script" in text
        # indentation encodes depth
        assert lines[0].startswith("<Recommendation>")
        assert lines[-1].startswith("    ")

    def test_why_unknown_fact(self):
        eng = chain_engine()
        assert eng.why(Fact("Stranger")) == []

    def test_depth_limit(self):
        """Self-growing chains terminate at the depth cap."""
        eng = RuleEngine()
        eng.add_rule(
            RuleBuilder("grow")
            .when("f", "N", "v := depth", ("depth", "<", 20))
            .then(lambda ctx: ctx.insert("N", depth=ctx["v"] + 1))
            .build()
        )
        eng.insert("N", depth=0)
        eng.run()
        deepest = eng.facts("N")[-1]
        lines = eng.why(deepest, _max_depth=4)
        assert 0 < len(lines) <= 4

    def test_harness_why(self):
        harness = RuleHarness(None)
        harness.engine.add_rules(chain_engine().rules)
        harness.assertObject(Fact("Event", name="pc", sev=0.9))
        harness.processRules()
        rec = harness.recommendations()[0]
        text = harness.why(rec)
        assert "recommend" in text and "classify" in text
        assert harness.why(Fact("Ghost")) == "(fact unknown to this harness)"

    def test_end_to_end_why_on_real_diagnosis(self):
        from repro.apps.msa import run_msa_trial
        from repro.knowledge import diagnose_load_balance

        run = run_msa_trial(n_sequences=100, n_threads=8, schedule="static")
        harness = diagnose_load_balance(run.trial)
        rec = next(
            f for f in harness.recommendations()
            if f.get("category") == "load-imbalance"
        )
        text = harness.why(rec)
        # the chain reaches the imbalance rule and the script-asserted facts
        assert "Load imbalance with barrier waiting" in text
        assert "analysis script" in text
