"""Tests for RuleHarness rule-source resolution and accessors."""

from pathlib import Path

import pytest

from repro.core import AnalysisError, RuleHarness, register_rulebase
from repro.core import harness as harness_module
from repro.rules import Fact, RuleBuilder, parse_rules

SRC = 'rule "r" when f : T(x > 1) then log "hit {f.x}" end'


class TestResolution:
    def test_from_rule_text(self):
        h = RuleHarness(SRC)
        assert [r.name for r in h.engine.rules] == ["r"]

    def test_from_rule_list_and_single_rule(self):
        rule = RuleBuilder("py").when("f", "T").then(lambda c: None).build()
        assert len(RuleHarness([rule]).engine.rules) == 1
        assert len(RuleHarness(rule).engine.rules) == 1

    def test_from_prl_path(self, tmp_path):
        p = tmp_path / "mine.prl"
        p.write_text(SRC)
        assert len(RuleHarness(str(p)).engine.rules) == 1
        assert len(RuleHarness(Path(p)).engine.rules) == 1

    def test_from_registered_name(self, monkeypatch):
        # a copy of the registry, so the name does not outlive the test
        monkeypatch.setattr(harness_module, "_REGISTERED_RULEBASES",
                            dict(harness_module._REGISTERED_RULEBASES))
        register_rulebase("test-base-xyz", lambda: parse_rules(SRC))
        h = RuleHarness("test-base-xyz")
        assert [r.name for r in h.engine.rules] == ["r"]

    def test_openuh_rules_autoresolve(self):
        # resolves without a prior `import repro.knowledge`
        h = RuleHarness("openuh-rules")
        assert len(h.engine.rules) > 10

    def test_unresolvable_string(self):
        with pytest.raises(AnalysisError, match="cannot resolve"):
            RuleHarness("definitely-not-a-rulebase")

    def test_unsupported_type(self):
        with pytest.raises(AnalysisError, match="cannot resolve rules"):
            RuleHarness(42)

    def test_none_builds_empty_harness(self):
        h = RuleHarness(None)
        assert h.engine.rules == []

    def test_add_rules_chain(self):
        h = RuleHarness(None).addRules(SRC)
        assert len(h.engine.rules) == 1


class TestAccessors:
    def _fired(self):
        h = RuleHarness(SRC)
        h.assertObject(Fact("T", x=5))
        h.assertObjects([Fact("T", x=0), Fact("T", x=9)])
        h.processRules()
        return h

    def test_output_and_facts(self):
        h = self._fired()
        assert len(h.output) == 2
        assert len(h.facts("T")) == 3

    def test_recommendations_sorted_by_severity(self):
        h = RuleHarness(None)
        for sev in (0.1, 0.9, 0.5):
            h.assertObject(Fact("Recommendation", severity=sev, category="x"))
        recs = h.recommendations()
        assert [r["severity"] for r in recs] == [0.9, 0.5, 0.1]

    def test_reset_clears_everything(self):
        h = self._fired()
        h.reset()
        assert h.output == [] and h.facts("T") == []
        h.assertObject(Fact("T", x=5))
        assert h.processRules() == 1  # refraction cleared too

    def test_explain_nonempty_after_firing(self):
        h = self._fired()
        assert any("fired" in line for line in h.explain())
