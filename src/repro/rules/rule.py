"""Rule objects and the fluent builder API.

A :class:`Rule` couples a left-hand side (an ordered sequence of
:class:`~repro.rules.conditions.Pattern` and
:class:`~repro.rules.conditions.Test` elements) with a right-hand-side action.
Actions receive a :class:`RuleContext`, through which they can read bindings,
assert new facts, and emit :class:`~repro.knowledge.recommendations`-style
output objects.

Rules written in Python use :class:`RuleBuilder`::

    rule = (RuleBuilder("Stalls per Cycle", salience=10)
            .when("f", "MeanEventFact",
                  ("metric", "==", "(BACK_END_BUBBLE_ALL/CPU_CYCLES)"),
                  ("higherLower", "==", "higher"),
                  ("severity", ">", 0.10),
                  ("factType", "==", "Compared to Main"))
            .then(my_action)
            .build())

Rules written in the ``.prl`` DSL are parsed into the same objects by
:mod:`repro.rules.dsl`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

from .conditions import (
    Bindings,
    ConditionError,
    Constraint,
    Pattern,
    Test,
)
from .expr import check_template
from .facts import Fact, FactHandle

ConditionElement = Union[Pattern, Test]


class RuleContext:
    """What an action sees when its rule fires.

    Provides read access to the bindings and write access to the engine
    (assert/retract/log) without exposing engine internals.
    """

    def __init__(self, engine, rule: "Rule", bindings: Bindings, handles):
        self._engine = engine
        self.rule = rule
        self.bindings: Bindings = dict(bindings)
        #: Fact handles matched by the LHS patterns, in pattern order.
        self.handles: tuple[FactHandle, ...] = tuple(handles)

    def __getitem__(self, name: str) -> Any:
        try:
            return self.bindings[name]
        except KeyError:
            raise KeyError(
                f"rule {self.rule.name!r} has no binding {name!r}; "
                f"available: {sorted(self.bindings)}"
            ) from None

    # -- engine pass-throughs --------------------------------------------
    def assert_fact(self, fact: Fact) -> FactHandle:
        """Insert a new fact; may activate further rules this cycle."""
        return self._engine.assert_fact(fact)

    def insert(self, fact_type: str, /, **fields: Any) -> FactHandle:
        """Shorthand: build and assert a fact in one call."""
        return self.assert_fact(Fact(fact_type, **fields))

    def retract(self, handle: FactHandle) -> None:
        self._engine.retract(handle)

    def log(self, message: str) -> None:
        """Emit an output line (collected by the engine, printed when
        ``RuleEngine.echo`` is set — the analogue of the paper's
        ``System.out.println`` rule consequences)."""
        self._engine.emit(self.rule.name, message)


@dataclass(frozen=True)
class Rule:
    """A production rule.

    Rules are immutable and hold no match state (working memory, agenda
    and per-rule match bookkeeping live in
    :class:`~repro.rules.engine.RuleEngine`), so one compiled rulebase is
    safely shared by every engine and thread.

    Attributes
    ----------
    name:
        Unique within a rulebase; shown in traces and output.
    conditions:
        LHS elements in evaluation order.
    action:
        Callable invoked with a :class:`RuleContext` when the rule fires.
    salience:
        Higher fires first (Drools semantics). Default 0.
    no_loop:
        When True the rule will not re-activate from facts its own action
        asserted during the same firing (prevents trivial self-loops).
    doc:
        Optional human-readable description of the diagnosis the rule encodes.
    params:
        ``(name, value)`` of each ``param`` the rule declares: named
        literals of its constraints (see :func:`~repro.rules.dsl.with_params`).
    """

    name: str
    conditions: Sequence[ConditionElement]
    action: Callable[[RuleContext], None]
    salience: int = 0
    no_loop: bool = False
    doc: str = ""
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rule name must be non-empty")
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "params", tuple(self.params))
        if not self.conditions:
            raise ValueError(f"rule {self.name!r} has an empty LHS")
        if not any(isinstance(c, Pattern) for c in self.conditions):
            raise ValueError(
                f"rule {self.name!r} must contain at least one fact pattern"
            )
        first = self.conditions[0]
        if isinstance(first, Test):
            raise ValueError(
                f"rule {self.name!r}: LHS cannot start with a test "
                "(tests need bindings from earlier patterns)"
            )

    def describe(self) -> str:
        lines = [f"rule {self.name!r} (salience {self.salience})"]
        for c in self.conditions:
            if isinstance(c, Pattern):
                lines.append(f"  when {c.describe()}")
            else:
                lines.append(f"  test {c.description}")
        return "\n".join(lines)


class RuleBuilder:
    """Fluent construction of :class:`Rule` objects.

    Each ``when``/``when_not`` call appends one pattern; constraint tuples are
    ``(field, op, value)`` with two extensions:

    * ``(field, op, "$var")`` compares against an earlier binding,
    * ``("bindname := field",)`` binds a field without testing it.
    """

    def __init__(self, name: str, *, salience: int = 0, no_loop: bool = False, doc: str = ""):
        self._name = name
        self._salience = salience
        self._no_loop = no_loop
        self._doc = doc
        self._conditions: list[ConditionElement] = []
        self._action: Callable[[RuleContext], None] | None = None

    # -- LHS ----------------------------------------------------------------
    def when(self, bind_as: str | None, fact_type: str, *specs) -> "RuleBuilder":
        self._conditions.append(
            Pattern(fact_type, self._parse_specs(specs), bind_as=bind_as)
        )
        return self

    def when_not(self, fact_type: str, *specs) -> "RuleBuilder":
        self._conditions.append(
            Pattern(fact_type, self._parse_specs(specs), negated=True)
        )
        return self

    def test(self, predicate: Callable[[Bindings], bool], description: str = "<test>") -> "RuleBuilder":
        self._conditions.append(Test(predicate, description))
        return self

    @staticmethod
    def _parse_specs(specs) -> list[Constraint]:
        out: list[Constraint] = []
        for spec in specs:
            if isinstance(spec, Constraint):
                out.append(spec)
                continue
            if isinstance(spec, str):
                # "bind := field" or bare "field" (existence test)
                if ":=" in spec:
                    bind, _, fieldname = (s.strip() for s in spec.partition(":="))
                    out.append(Constraint(fieldname, "any", bind=bind))
                else:
                    out.append(Constraint(spec.strip(), "any"))
                continue
            if not isinstance(spec, (tuple, list)) or len(spec) != 3:
                raise ConditionError(
                    f"constraint spec must be (field, op, value), a string, or "
                    f"a Constraint; got {spec!r}"
                )
            fieldname, op, value = spec
            if isinstance(value, str) and value.startswith("$"):
                out.append(Constraint(fieldname, op, value[1:], is_variable=True))
            else:
                out.append(Constraint(fieldname, op, value))
        return out

    # -- RHS ----------------------------------------------------------------
    def then(self, action: Callable[[RuleContext], None]) -> "RuleBuilder":
        self._action = action
        return self

    def then_log(self, template: str) -> "RuleBuilder":
        """Action that logs ``template`` (a :mod:`~repro.rules.expr`
        template, checked here) filled from the bindings."""
        message = check_template(template)
        return self.then(lambda ctx: ctx.log(message(ctx.bindings)))

    def build(self) -> Rule:
        if self._action is None:
            raise ValueError(f"rule {self._name!r} has no action; call .then()")
        return Rule(
            name=self._name,
            conditions=self._conditions,
            action=self._action,
            salience=self._salience,
            no_loop=self._no_loop,
            doc=self._doc,
        )
