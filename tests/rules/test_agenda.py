"""Direct tests for the agenda's conflict-resolution strategy."""

import pytest

from repro.rules import Fact, RuleBuilder
from repro.rules.agenda import Activation, Agenda
from repro.rules.facts import FactHandle


def make_rule(name, salience=0, n_constraints=1):
    specs = [(f"f{i}", ">", 0) for i in range(n_constraints)]
    return (
        RuleBuilder(name, salience=salience)
        .when("f", "T", *specs)
        .then(lambda ctx: None)
        .build()
    )


def activation(rule, *facts):
    handles = tuple(FactHandle(f) for f in facts)
    return Activation(rule, handles, {})


class TestConflictResolution:
    def test_salience_wins(self):
        agenda = Agenda()
        low = activation(make_rule("low", salience=1), Fact("T"))
        high = activation(make_rule("high", salience=9), Fact("T"))
        for act in [low, high]:
            agenda.offer(act)
        assert agenda.pop().rule.name == "high"
        assert agenda.pop().rule.name == "low"

    def test_recency_breaks_salience_ties(self):
        agenda = Agenda()
        rule = make_rule("r")
        older = activation(rule, Fact("T"))
        newer = activation(rule, Fact("T"))  # later FactHandle => higher seq
        for act in [older, newer]:
            agenda.offer(act)
        assert agenda.pop() is newer

    def test_specificity_breaks_remaining_ties(self):
        agenda = Agenda()
        f = FactHandle(Fact("T"))
        loose = Activation(make_rule("loose", n_constraints=1), (f,), {})
        tight = Activation(make_rule("tight", n_constraints=4), (f,), {})
        for act in [loose, tight]:
            agenda.offer(act)
        assert agenda.pop().rule.name == "tight"

    def test_name_is_the_final_deterministic_tiebreak(self):
        agenda = Agenda()
        f = FactHandle(Fact("T"))
        a = Activation(make_rule("aaa"), (f,), {})
        b = Activation(make_rule("bbb"), (f,), {})
        for act in [b, a]:
            agenda.offer(act)
        assert agenda.pop().rule.name == "aaa"


class TestRefractionAndLiveness:
    def test_refraction_blocks_reoffer(self):
        agenda = Agenda()
        act = activation(make_rule("r"), Fact("T"))
        assert agenda.offer(act)
        assert agenda.pop() is act
        # same (rule, facts) combination never re-queues
        assert not agenda.offer(act)
        assert agenda.pop() is None

    def test_duplicate_offer_is_idempotent(self):
        agenda = Agenda()
        act = activation(make_rule("r"), Fact("T"))
        assert agenda.offer(act)
        assert agenda.offer(act)  # still "queued"
        assert len(agenda) == 1

    def test_dead_activation_skipped_by_pop(self):
        agenda = Agenda()
        act = activation(make_rule("r"), Fact("T"))
        agenda.offer(act)
        act.handles[0].live = False
        assert agenda.pop() is None

    def test_invalidate_dead(self):
        agenda = Agenda()
        live = activation(make_rule("a"), Fact("T"))
        dead = activation(make_rule("b"), Fact("T"))
        for act in [live, dead]:
            agenda.offer(act)
        dead.handles[0].live = False
        assert agenda.invalidate_dead() == 1
        assert len(agenda) == 1

    def test_pending_snapshot_in_firing_order(self):
        agenda = Agenda()
        acts = [
            activation(make_rule("low", salience=1), Fact("T")),
            activation(make_rule("high", salience=5), Fact("T")),
        ]
        for act in acts:
            agenda.offer(act)
        names = [a.rule.name for a in agenda.pending()]
        assert names == ["high", "low"]
        assert len(agenda) == 2  # snapshot does not consume

    def test_reset_refraction(self):
        agenda = Agenda()
        act = activation(make_rule("r"), Fact("T"))
        agenda.offer(act)
        agenda.pop()
        agenda.reset_refraction()
        assert agenda.offer(act)
        assert agenda.pop() is act
