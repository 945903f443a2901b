"""The rule-file features the shipped knowledge needs: ``param``,
``test`` clauses, ``if``/``else`` and expressions in templates and
``insert`` values."""

import dataclasses

import pytest

from repro.rules import (
    Constraint,
    DSLSyntaxError,
    Fact,
    RuleBuilder,
    RuleEngine,
    Test,
    parse_rules,
    with_params,
)

GUARDED = '''
rule "Guarded"
salience 3
param ratio_threshold = 0.25
param severity_threshold = 0.05
when
    f : E(n := name, r := ratio, s := severity, ratio > ratio_threshold,
          severity > severity_threshold)
    test r >= 2 * s or n == "always"
then
    if r > 0.5
        log "{n}: high {r:.2f} ({-s:+.0%})"
    else
        log "{n}: " "moderate {r:.2f}"
    end
    insert Out(name=$n, half=r / 2, big=max(r, s), label=f"{n!r}-{f.severity}",
               kind=plain, word="{n}", who="a" if s > 0.1 else "b")
end
'''


def fire(rules, *facts):
    engine = RuleEngine()
    engine.add_rules(rules)
    for fact in facts:
        engine.assert_fact(fact)
    engine.run()
    return engine


class TestParams:
    def test_param_is_a_plain_literal_of_the_pattern(self):
        rule = parse_rules(GUARDED)[0]
        pattern = rule.conditions[0]
        assert rule.params == (("ratio_threshold", 0.25),
                               ("severity_threshold", 0.05))
        assert pattern.constraints[3] == Constraint("ratio", ">", 0.25)
        assert pattern.constraints[3].param == "ratio_threshold"
        assert [op is not None for _, op, _ in pattern.alpha_tests()] == [
            False, False, False, True, True]

    def test_with_params_overrides_every_declaring_rule(self):
        text = GUARDED + GUARDED.replace('"Guarded"', '"Other"')
        rules = with_params(parse_rules(text), {"ratio_threshold": 0.9})
        for rule in rules:
            assert rule.conditions[0].constraints[3].value == 0.9
            assert rule.conditions[0].alpha_tests()[3][2] == 0.9
            assert dict(rule.params)["ratio_threshold"] == 0.9
            assert dict(rule.params)["severity_threshold"] == 0.05

    def test_untouched_rules_are_the_same_objects(self):
        rules = parse_rules(GUARDED + 'rule "Plain" when f : E() then end')
        assert with_params(rules, {"ratio_threshold": 0.3})[1] is rules[1]
        assert with_params(rules, {}) == rules

    def test_unknown_param_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            with_params(parse_rules(GUARDED), {"bogus": 1})

    def test_repeated_param_is_a_syntax_error(self):
        with pytest.raises(DSLSyntaxError, match="repeated param"):
            parse_rules('rule "x" param a = 1 param a = 2 '
                        'when f : E() then end')


class TestConditionsAndActions:
    def test_test_clause_is_one_condition_of_specificity_one(self):
        cond = parse_rules(GUARDED)[0].conditions[1]
        assert isinstance(cond, Test) and cond.specificity == 1
        assert cond.description == 'r >= 2 * s or n == "always"'

    def test_branches_templates_and_expressions(self):
        engine = fire(parse_rules(GUARDED),
                      Fact("E", name="a", ratio=0.8, severity=0.2),
                      Fact("E", name="b", ratio=0.3, severity=0.1),
                      Fact("E", name="c", ratio=0.3, severity=0.2))
        assert sorted(engine.output) == [
            "[Guarded] a: high 0.80 (-20%)", "[Guarded] b: moderate 0.30"]
        out = {f["name"]: f.as_dict() for f in engine.facts("Out")}
        assert out["a"] == {"name": "a", "half": 0.4, "big": 0.8,
                            "label": "'a'-0.2", "kind": "plain",
                            "word": "{n}", "who": "a"}
        assert out["b"]["who"] == "b"

    def test_fact_fields_and_facts_in_templates(self):
        rules = parse_rules('rule "x" when f : E(n := name) then '
                            'log "{f.name}|{f[\\"name\\"]}|{f}" end')
        fact = Fact("E", name="loop")
        engine = fire(rules, fact)
        assert engine.output == [f"[x] loop|loop|{fact!r}"]

    def test_then_log_takes_the_same_templates(self):
        rule = (RuleBuilder("py").when("f", "E", "n := name")
                .then_log("{n!r} at {f.severity:.0%}").build())
        engine = fire([rule], Fact("E", name="x", severity=0.5))
        assert engine.output == ["[py] 'x' at 50%"]

    def test_rules_stay_immutable(self):
        rule = parse_rules(GUARDED)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.action.statements = ()
