"""Round-trip tests for the .prl serializer, including property-based
fuzzing over generated rules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rules import (
    Constraint,
    Pattern,
    Rule,
    RuleBuilder,
    SerializationError,
    Test,
    parse_rules,
    rule_to_prl,
    rules_to_prl,
)
from repro.rules.dsl import _CompiledAction, _InsertStatement, _LogStatement


def roundtrip(rule: Rule) -> Rule:
    parsed = parse_rules(rule_to_prl(rule))
    assert len(parsed) == 1
    return parsed[0]


def assert_rules_equivalent(a: Rule, b: Rule) -> None:
    assert a.name == b.name
    assert a.salience == b.salience
    assert a.no_loop == b.no_loop
    assert a.doc == b.doc
    assert a.params == b.params
    assert len(a.conditions) == len(b.conditions)
    for ca, cb in zip(a.conditions, b.conditions):
        if isinstance(ca, Test):
            assert ca == cb  # the same expression source
            continue
        assert ca.fact_type == cb.fact_type
        assert ca.bind_as == cb.bind_as
        assert ca.negated == cb.negated
        assert ca.constraints == cb.constraints
        assert [c.param for c in ca.constraints] == \
            [c.param for c in cb.constraints]
    assert a.action.statements == b.action.statements


SHIPPED_FILES = ["OpenUHRules.prl", "ServiceRules.prl", "LineageRules.prl",
                 "RegressionRules.prl", "ExperimentRules.prl"]


class TestShippedRules:
    def test_shipped_prl_roundtrips(self):
        from repro.knowledge import prl_rules

        for filename in SHIPPED_FILES:
            original = prl_rules(filename)
            again = parse_rules(rules_to_prl(original))
            assert len(again) == len(original)
            for a, b in zip(original, again):
                assert_rules_equivalent(a, b)


class TestSerializerEdges:
    def _dsl_rule(self, src: str) -> Rule:
        return parse_rules(src)[0]

    def test_simple_roundtrip(self):
        rule = self._dsl_rule(
            'rule "x" salience 3 no-loop doc "d"\n'
            'when f : T(a > 1.5, b == "s", c := d, e)\n'
            'then log "hi {c}"\n'
            'insert R(k=$c, n=7, flag=true, nothing=null)\n'
            "end"
        )
        assert_rules_equivalent(rule, roundtrip(rule))

    def test_negated_and_variable_roundtrip(self):
        rule = self._dsl_rule(
            'rule "neg"\n'
            "when\n"
            "    t : A(n := name)\n"
            "    not B(ref == $n)\n"
            'then log "lonely {n}"\n'
            "end"
        )
        again = roundtrip(rule)
        assert again.conditions[1].negated
        assert again.conditions[1].constraints[0].is_variable

    @pytest.mark.parametrize("name", ["not", "then"])
    def test_keyword_named_binding_roundtrip(self, name):
        rule = Rule(
            name="kw",
            conditions=[Pattern("A", [Constraint("a", "==", 0)],
                                bind_as=name),
                        Pattern("B", [Constraint("x", "==", 1)],
                                negated=True)],
            action=_CompiledAction((_LogStatement("hi"),)),
        )
        assert_rules_equivalent(rule, roundtrip(rule))

    def test_quotes_and_escapes(self):
        rule = self._dsl_rule(
            'rule "q\\"uote" when f : T(s == "a\\"b") then log "x\\"y" end'
        )
        assert_rules_equivalent(rule, roundtrip(rule))

    def test_python_action_not_serializable(self):
        rule = (
            RuleBuilder("py").when("f", "T").then(lambda ctx: None).build()
        )
        with pytest.raises(SerializationError, match="DSL-compiled"):
            rule_to_prl(rule)

    def test_test_condition_not_serializable(self):
        rule = (
            RuleBuilder("t")
            .when("f", "T", "x := v")
            .test(lambda b: True, "guard")
            .then(lambda ctx: None)
            .build()
        )
        with pytest.raises(SerializationError, match="test conditions"):
            rule_to_prl(rule)


# -- property-based round-trip ------------------------------------------------

ident = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
type_name = st.from_regex(r"[A-Z][A-Za-z0-9]{0,8}", fullmatch=True)
safe_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=12,
)
literal = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-100, max_value=100, allow_nan=False).map(
        lambda v: round(v, 4)
    ),
    st.booleans(),
    st.none(),
    safe_text,
)


@st.composite
def constraints(draw):
    field = draw(ident)
    kind = draw(st.sampled_from(["literal", "bind", "exists"]))
    if kind == "bind":
        return Constraint(field, "any", bind=draw(ident))
    if kind == "exists":
        return Constraint(field, "any")
    op = draw(st.sampled_from(["==", "!=", ">", ">=", "<", "<="]))
    return Constraint(field, op, draw(literal))


@st.composite
def dsl_rules(draw):
    n_patterns = draw(st.integers(min_value=1, max_value=3))
    patterns = []
    for i in range(n_patterns):
        negated = i > 0 and draw(st.booleans())
        cs = draw(st.lists(constraints(), min_size=1, max_size=3))
        if negated:
            cs = [c for c in cs if c.bind is None] or [Constraint("x", "==", 1)]
        patterns.append(
            Pattern(
                draw(type_name),
                cs,
                bind_as=None if negated else draw(st.one_of(st.none(), ident)),
                negated=negated,
            )
        )
    stmts = [_LogStatement(draw(safe_text.filter(lambda s: "{" not in s and "}" not in s)))]
    return Rule(
        name=draw(safe_text.filter(lambda s: s.strip())),
        conditions=patterns,
        action=_CompiledAction(tuple(stmts)),
        salience=draw(st.integers(min_value=0, max_value=20)),
        doc=draw(safe_text.filter(lambda s: s.strip() or s == "")),
    )


@settings(max_examples=60, deadline=None)
@given(dsl_rules())
def test_roundtrip_property(rule):
    """serialize → parse preserves every structural element."""
    assert_rules_equivalent(rule, roundtrip(rule))
