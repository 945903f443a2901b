"""Tests for the .prl rule-file dialect."""

import pytest

from repro.rules import DSLSyntaxError, Fact, RuleEngine, parse_rules

PAPER_FIG2 = '''
# The paper's Fig. 2 rule, transliterated from Drools DRL.
rule "Stalls per Cycle"
when
    f : MeanEventFact(
        metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
        higherLower == higher,
        severity > 0.10,
        e := eventName,
        a := mainValue,
        v := eventValue,
        factType == "Compared to Main" )
then
    log "Event {e} has a higher than average stall / cycle rate"
    log "    Average stall / cycle: {a:.4f}"
    log "    Event stall / cycle: {v:.4f}"
    log "    Percentage of total runtime: {f.severity:.4f}"
end
'''


def _mean_event_fact(**over):
    base = dict(
        metric="(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
        higherLower="higher",
        severity=0.31,
        eventName="matxvec",
        mainValue=0.42,
        eventValue=0.77,
        factType="Compared to Main",
    )
    base.update(over)
    return Fact("MeanEventFact", **base)


class TestPaperFig2:
    def test_parses(self):
        rules = parse_rules(PAPER_FIG2)
        assert len(rules) == 1
        assert rules[0].name == "Stalls per Cycle"
        assert [c.fact_type for c in rules[0].conditions] == ["MeanEventFact"]

    def test_fires_on_matching_fact(self):
        eng = RuleEngine()
        eng.add_rules(parse_rules(PAPER_FIG2))
        eng.assert_fact(_mean_event_fact())
        assert eng.run() == 1
        joined = "\n".join(eng.output)
        assert "matxvec" in joined
        assert "0.4200" in joined and "0.7700" in joined
        assert "Percentage of total runtime: 0.3100" in joined

    @pytest.mark.parametrize(
        "override",
        [
            {"severity": 0.05},
            {"higherLower": "lower"},
            {"metric": "CPU_CYCLES"},
            {"factType": "Compared to Other"},
        ],
    )
    def test_silent_on_non_matching_fact(self, override):
        eng = RuleEngine()
        eng.add_rules(parse_rules(PAPER_FIG2))
        eng.assert_fact(_mean_event_fact(**override))
        assert eng.run() == 0


class TestDSLFeatures:
    def test_salience_and_no_loop_and_doc(self):
        rules = parse_rules(
            'rule "r" salience 7 no-loop doc "why"\n'
            "when f : A(x > 1) then log \"y\" end"
        )
        r = rules[0]
        assert r.salience == 7 and r.no_loop and r.doc == "why"

    def test_insert_statement_with_bindings(self):
        src = """
        rule "derive"
        when f : Event(sev > 0.2, n := name)
        then insert HotSpot(event=$n, kind="stall", weight=1.5)
        end
        """
        eng = RuleEngine()
        eng.add_rules(parse_rules(src))
        eng.insert("Event", name="pc_jac_glb", sev=0.4)
        eng.run()
        hot = eng.facts("HotSpot")
        assert len(hot) == 1
        assert hot[0]["event"] == "pc_jac_glb"
        assert hot[0]["kind"] == "stall" and hot[0]["weight"] == 1.5

    def test_variable_join_between_patterns(self):
        src = """
        rule "join"
        when
            p : Event(n := name, kind == "outer")
            c : Event(parent == $n, kind == "inner")
        then log "joined {n}"
        end
        """
        eng = RuleEngine()
        eng.add_rules(parse_rules(src))
        eng.insert("Event", name="L1", kind="outer")
        eng.insert("Event", name="L2", kind="inner", parent="L1")
        eng.insert("Event", name="L3", kind="inner", parent="XX")
        assert eng.run() == 1
        assert eng.output == ["[join] joined L1"]

    def test_negated_pattern(self):
        src = """
        rule "lonely"
        when
            t : Trial(n := name)
            not Baseline(trial == $n)
        then log "no baseline for {n}"
        end
        """
        eng = RuleEngine()
        eng.add_rules(parse_rules(src))
        eng.insert("Trial", name="a")
        eng.insert("Baseline", trial="a")
        eng.insert("Trial", name="b")
        eng.run()
        assert eng.output == ["[lonely] no baseline for b"]

    def test_literals(self):
        src = """
        rule "lits"
        when f : T(a == true, b == false, c == null, d == 3, e == -2.5, g == word)
        then log "ok"
        end
        """
        eng = RuleEngine()
        eng.add_rules(parse_rules(src))
        eng.insert("T", a=True, b=False, c=None, d=3, e=-2.5, g="word")
        assert eng.run() == 1

    def test_multiple_rules_per_file(self):
        src = 'rule "a" when f : A() then log "a" end\n' * 1
        src += 'rule "b" when f : B() then log "b" end'
        assert [r.name for r in parse_rules(src)] == ["a", "b"]

    def test_comments_ignored(self):
        src = """
        # full line comment
        rule "c"   // trailing comment
        when f : A()  # another
        then log "x"
        end
        """
        assert parse_rules(src)[0].name == "c"

    def test_existence_constraint(self):
        src = 'rule "e" when f : A(someField) then log "has it" end'
        eng = RuleEngine()
        eng.add_rules(parse_rules(src))
        eng.insert("A", someField=None)
        eng.insert("A", other=1)
        assert eng.run() == 1


class TestDSLErrors:
    @pytest.mark.parametrize(
        "src, msg",
        [
            ('rule "x" when then log "y" end', "empty 'when'"),
            ('rule "x" when f : A(', "unexpected end"),
            ('rule "x" when f : A() then frobnicate "y" end', "unknown statement"),
            ('rule "x" banana when f : A() then log "y" end', "unexpected"),
            ("@", "unexpected character"),
        ],
    )
    def test_syntax_errors_carry_context(self, src, msg):
        with pytest.raises(DSLSyntaxError, match=msg):
            parse_rules(src)

    def test_error_reports_line_number(self):
        src = 'rule "x"\nwhen\n  f : A(\nthen'
        with pytest.raises(DSLSyntaxError) as exc:
            parse_rules(src)
        assert exc.value.line >= 3
