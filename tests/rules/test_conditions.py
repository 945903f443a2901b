"""Unit and property tests for the pattern/constraint language."""

import pytest
from hypothesis import given, strategies as st

from repro.rules import ConditionError, Constraint, Fact, Pattern, Test
from repro.rules.facts import FactHandle


def _handles(*facts):
    return [FactHandle(f) for f in facts]


class TestConstraint:
    def test_literal_comparison_ops(self):
        f = Fact("T", x=5, name="main")
        assert Constraint("x", ">", 4).evaluate(f, {})
        assert Constraint("x", ">=", 5).evaluate(f, {})
        assert not Constraint("x", "<", 5).evaluate(f, {})
        assert Constraint("x", "<=", 5).evaluate(f, {})
        assert Constraint("x", "==", 5).evaluate(f, {})
        assert Constraint("x", "!=", 6).evaluate(f, {})
        assert Constraint("name", "matches", "^ma").evaluate(f, {})
        assert Constraint("name", "contains", "ai").evaluate(f, {})
        assert Constraint("name", "in", ["main", "loop"]).evaluate(f, {})

    def test_float_equality_is_tolerant(self):
        f = Fact("T", ratio=0.1 + 0.2)
        assert Constraint("ratio", "==", 0.3).evaluate(f, {})
        assert not Constraint("ratio", "!=", 0.3).evaluate(f, {})

    def test_missing_field_fails_softly(self):
        assert not Constraint("nope", "==", 1).evaluate(Fact("T", x=1), {})

    def test_incomparable_types_fail_softly(self):
        assert not Constraint("x", ">", 3).evaluate(Fact("T", x="str"), {})

    def test_variable_comparison(self):
        c = Constraint("parent", "==", "outer", is_variable=True)
        f = Fact("T", parent="loop1")
        assert c.evaluate(f, {"outer": "loop1"})
        assert not c.evaluate(f, {"outer": "loop2"})

    def test_unbound_variable_raises(self):
        c = Constraint("x", "==", "missing", is_variable=True)
        with pytest.raises(ConditionError, match="unbound"):
            c.evaluate(Fact("T", x=1), {})

    def test_unknown_operator_rejected(self):
        with pytest.raises(ConditionError):
            Constraint("x", "~~", 1)

    def test_any_op_is_existence_test(self):
        c = Constraint("x", "any")
        assert c.evaluate(Fact("T", x=None), {})
        assert not c.evaluate(Fact("T", y=1), {})


class TestPattern:
    def test_type_mismatch(self):
        p = Pattern("A")
        assert p.match_one(Fact("B"), {}) is None

    def test_binding_extends_without_mutating(self):
        p = Pattern("T", [Constraint("x", "any", bind="xv")], bind_as="f")
        start = {"pre": 1}
        fact = Fact("T", x=10)
        out = p.match_one(fact, start)
        assert out == {"pre": 1, "xv": 10, "f": fact}
        assert start == {"pre": 1}

    def test_inconsistent_rebinding_fails(self):
        p = Pattern("T", [Constraint("x", "any", bind="v")])
        assert p.match_one(Fact("T", x=2), {"v": 1}) is None
        assert p.match_one(Fact("T", x=1), {"v": 1}) is not None

    def test_negated_cannot_bind(self):
        with pytest.raises(ConditionError):
            Pattern("T", negated=True, bind_as="f")
        with pytest.raises(ConditionError):
            Pattern("T", [Constraint("x", "any", bind="v")], negated=True)

    def test_candidates_skips_dead_handles(self):
        p = Pattern("T")
        handles = _handles(Fact("T", i=0), Fact("T", i=1))
        handles[0].live = False
        got = p.candidates(handles, {})
        assert len(got) == 1 and got[0][0] is handles[1]

    def test_describe_roundtrip_info(self):
        p = Pattern(
            "MeanEventFact",
            [Constraint("severity", ">", 0.1), Constraint("e", "any", bind="ev")],
            bind_as="f",
        )
        text = p.describe()
        assert "MeanEventFact" in text and "severity > 0.1" in text
        assert "f :" in text and "ev := e" in text


class TestTest:
    def test_predicate_sees_copy_of_bindings(self):
        seen = {}

        def pred(b):
            seen.update(b)
            b["tamper"] = True
            return True

        t = Test(pred, "capture")
        original = {"a": 1}
        assert t.evaluate(original)
        assert seen == {"a": 1}
        assert "tamper" not in original


@given(
    x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    threshold=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_gt_lt_partition_property(x, threshold):
    """For any x != threshold exactly one of >, < holds; == handles the rest."""
    f = Fact("T", v=x)
    gt = Constraint("v", ">", threshold).evaluate(f, {})
    lt = Constraint("v", "<", threshold).evaluate(f, {})
    eq = Constraint("v", "==", threshold).evaluate(f, {})
    assert gt + lt + eq >= 1
    assert not (gt and lt)


@given(st.text(min_size=1, max_size=30))
def test_string_equality_reflexive(s):
    f = Fact("T", s=s)
    assert Constraint("s", "==", s).evaluate(f, {})
    assert not Constraint("s", "!=", s).evaluate(f, {})
