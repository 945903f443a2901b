"""Pattern/condition language for rule left-hand sides.

A rule's *when* part is a sequence of :class:`Pattern` objects.  Each pattern
matches facts of one type and applies a conjunction of :class:`Constraint`
tests to the fact's fields.  Constraints may compare a field against:

* a literal (``severity > 0.10``),
* a previously-bound variable (``eventName == $parent``), or
* an arbitrary predicate over the accumulated bindings.

Patterns may *bind* the whole fact to a variable (``f : MeanEventFact(...)``)
and may bind individual fields (``e := eventName``) for use in later patterns
and in the rule action — the same dataflow Drools exposes.

Matching itself lives in the engine.  By default the engine takes a
pattern's candidates from working memory's alpha memories (the rows that
pass :meth:`Pattern.alpha_tests`) narrowed by hash indexes on
equality-constrained fields (:meth:`Pattern.index_plan`);
``RuleEngine(indexing=False)`` forces the naive per-type scan everywhere.
Both matchers verify every candidate through :meth:`Pattern.match_one`, so
the alpha memories and indexes are purely acceleration structures — the
set of activations (and therefore the firing trace) is identical either
way.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from .facts import Fact, FactHandle

#: Bindings accumulated while matching one rule: variable name → value.
Bindings = dict[str, Any]


def _approx_eq(a: Any, b: Any) -> bool:
    """Equality that treats nearly-equal floats as equal.

    Derived metrics are floating point; rules that test ``metric == 1.0``
    should not be defeated by round-off.
    """
    if isinstance(a, float) or isinstance(b, float):
        try:
            return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
        except (TypeError, ValueError):
            return False
    return a == b


def _approx_ne(a: Any, b: Any) -> bool:
    return not _approx_eq(a, b)


def _matches_re(a: Any, b: Any) -> bool:
    return re.search(str(b), str(a)) is not None


def _contains(a: Any, b: Any) -> bool:
    try:
        return b in a
    except TypeError:
        return False


def _in(a: Any, b: Any) -> bool:
    try:
        return a in b
    except TypeError:
        return False


#: Operator table used by both the Python API and the ``.prl`` DSL.
OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": _approx_eq,
    "!=": _approx_ne,
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "matches": _matches_re,
    "contains": _contains,
    "in": _in,
}


class ConditionError(Exception):
    """Raised for malformed patterns or constraints."""


@dataclass(frozen=True)
class Constraint:
    """A single field test inside a pattern.

    Attributes
    ----------
    fieldname:
        The fact field being tested.
    op:
        A key of :data:`OPERATORS`.
    value:
        Literal right-hand side, or — when ``is_variable`` — the name of a
        binding established by an earlier pattern (or earlier in this one).
    bind:
        Optional variable name this field's value is bound to *when the
        constraint passes* (``x := field`` in the DSL binds and the op
        defaults to a tautology).
    param:
        The rule ``param`` the literal ``value`` came from, if any
        (:func:`~repro.rules.dsl.with_params` replaces it); not part of
        equality.
    """

    fieldname: str
    op: str = "=="
    value: Any = None
    is_variable: bool = False
    bind: str | None = None
    param: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.op not in OPERATORS and self.op != "any":
            raise ConditionError(
                f"unknown operator {self.op!r}; expected one of "
                f"{sorted(OPERATORS)} or 'any'"
            )

    def evaluate(self, fact: Fact, bindings: Bindings) -> bool:
        """Test this constraint against ``fact`` given earlier ``bindings``."""
        if self.fieldname not in fact:
            return False
        actual = fact[self.fieldname]
        if self.op == "any":
            return True
        expected = self.value
        if self.is_variable:
            if expected not in bindings:
                raise ConditionError(
                    f"constraint on {self.fieldname!r} references unbound "
                    f"variable {expected!r}"
                )
            expected = bindings[expected]
        try:
            return bool(OPERATORS[self.op](actual, expected))
        except TypeError:
            # Incomparable types (e.g. str > float): the fact simply does
            # not match, mirroring Drools' soft-failure semantics.
            return False


@dataclass(frozen=True)
class Test:
    """An arbitrary predicate over the accumulated bindings.

    ``Test`` conditions correspond to Drools ``eval(...)`` — they see only
    bindings, not a fact, and so are evaluated after the patterns that
    establish their inputs.
    """

    __test__ = False  # not a pytest test class

    predicate: Callable[[Bindings], bool]
    description: str = "<test>"

    #: A test contributes one condition's worth of specificity — it cannot
    #: be more specific than that because the engine cannot see inside the
    #: predicate (see :meth:`Activation.specificity <repro.rules.agenda.Activation>`).
    specificity = 1

    def evaluate(self, bindings: Bindings) -> bool:
        return bool(self.predicate(dict(bindings)))


@dataclass(frozen=True)
class Pattern:
    """Match facts of one type under a conjunction of constraints.

    Attributes
    ----------
    fact_type:
        Type name to match (``Fact.fact_type``).
    constraints:
        Field tests, all of which must pass.
    bind_as:
        Variable name the matched :class:`Fact` is bound to (``f : Type(...)``).
    negated:
        When True the pattern matches if **no** fact satisfies it
        (Drools ``not``).  Negated patterns cannot bind variables.
    """

    fact_type: str
    constraints: Sequence[Constraint] = field(default_factory=tuple)
    bind_as: str | None = None
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.negated and (
            self.bind_as or any(c.bind for c in self.constraints)
        ):
            raise ConditionError("negated patterns cannot bind variables")
        # Alpha tests: the leading constraints a row can be tested on
        # without bindings — literal comparisons, and field presence for
        # ``any`` constraints — up to and including the first one that
        # reads a variable (which only contributes its field's presence:
        # a row failing a later test would still reach it in match_one,
        # and an unbound variable must raise there as it does here).
        alpha: list[tuple[str, Callable | None, Any]] = []
        # Index probes: string equality constraints the alpha tests do not
        # decide.  Only *string* comparisons qualify — numeric "==" uses
        # approximate float equality (`_approx_eq`), which a hash bucket
        # cannot honor (1.0 and 1.0+1e-12 hash apart), so indexing numbers
        # could drop matches the naive matcher finds.
        probes: list[tuple[str, Any, bool]] = []
        reads_variable = False
        for c in self.constraints:
            if not reads_variable:
                literal = not c.is_variable and c.op != "any"
                alpha.append((c.fieldname,
                              OPERATORS[c.op] if literal else None,
                              c.value if literal else None))
                reads_variable = c.is_variable
                if literal:
                    continue
            if c.op == "==" and (c.is_variable or isinstance(c.value, str)):
                probes.append((c.fieldname, c.value, c.is_variable))
        object.__setattr__(self, "_alpha", tuple(alpha))
        object.__setattr__(self, "_probes", tuple(probes))

    def alpha_tests(self) -> tuple[tuple[str, Callable | None, Any], ...]:
        """``(field, operator, literal)`` tests that decide a row without
        bindings, in constraint order; a ``None`` operator tests only that
        the field is present.  Working memory evaluates them once per row
        for the indexed matcher; ``match_one`` still checks every
        survivor."""
        return self._alpha

    def index_plan(self) -> tuple[tuple[str, Any, bool], ...]:
        """``(field, value, is_variable)`` equality constraints usable as
        index probes.  A literal ``value`` is known at rule-build time; a
        variable's probe value only exists once earlier patterns have
        bound it (a string-valued binding enables the probe, anything else
        falls back to the alpha rows)."""
        return self._probes

    @property
    def specificity(self) -> int:
        """Constraint count + 1: the fact-type test itself is a constraint,
        so a bare ``Type()`` pattern (1) ranks below ``Type(f == x)`` (2)."""
        return len(self.constraints) + 1

    def match_one(self, fact: Fact, bindings: Bindings) -> Bindings | None:
        """Try to match a single fact.

        Returns the *extended* bindings on success, else None.  The input
        bindings are never mutated.
        """
        if fact.fact_type != self.fact_type:
            return None
        out = dict(bindings)
        for c in self.constraints:
            if not c.evaluate(fact, out):
                return None
            if c.bind:
                candidate = fact[c.fieldname]
                if c.bind in out and not _approx_eq(out[c.bind], candidate):
                    return None  # inconsistent re-binding
                out[c.bind] = candidate
        if self.bind_as:
            if self.bind_as in out:
                prior = out[self.bind_as]
                if prior is not fact:
                    return None
            out[self.bind_as] = fact
        return out

    def candidates(
        self, handles: Iterable[FactHandle], bindings: Bindings
    ) -> list[tuple[FactHandle, Bindings]]:
        """All (handle, extended-bindings) pairs matching this pattern."""
        results: list[tuple[FactHandle, Bindings]] = []
        for h in handles:
            if not h.live:
                continue
            ext = self.match_one(h.fact, bindings)
            if ext is not None:
                results.append((h, ext))
        return results

    def describe(self) -> str:
        """Human-readable form, used in traces and agenda dumps."""
        parts = []
        for c in self.constraints:
            lhs = f"{c.bind} := {c.fieldname}" if c.bind else c.fieldname
            if c.op == "any":
                parts.append(lhs)
            else:
                rhs = f"${c.value}" if c.is_variable else repr(c.value)
                parts.append(f"{lhs} {c.op} {rhs}")
        body = f"{self.fact_type}({', '.join(parts)})"
        if self.bind_as:
            body = f"{self.bind_as} : {body}"
        if self.negated:
            body = f"not {body}"
        return body

