"""Forward-chaining inference engine (the JBoss Rules analogue).

PerfExplorer 2.0 embedded the JBoss Rules engine so that performance
expertise could be written as declarative rules over facts derived from
profile data.  This package is a from-scratch Python production system with
the same moving parts:

* :class:`~repro.rules.facts.Fact` / :class:`~repro.rules.facts.FactHandle`
* :class:`~repro.rules.facts.FactBatch` / :class:`~repro.rules.facts.FactStream`
  — facts of one type as columns, asserted without a per-row object;
  :class:`~repro.rules.facts.Categorical` name columns and
  :class:`~repro.rules.facts.LazyValue` cells
* :class:`~repro.rules.conditions.Pattern` /
  :class:`~repro.rules.conditions.Constraint` /
  :class:`~repro.rules.conditions.Test` — the LHS language
* :class:`~repro.rules.rule.Rule` / :class:`~repro.rules.rule.RuleBuilder`
* :class:`~repro.rules.memory.WorkingMemory`
* :class:`~repro.rules.agenda.Agenda` — salience/recency conflict resolution
  with refraction
* :class:`~repro.rules.engine.RuleEngine` — the match-resolve-act loop
* :func:`~repro.rules.dsl.parse_rules` / :func:`~repro.rules.dsl.load_prl` —
  the ``.prl`` rule-file dialect mirroring the paper's Fig. 2 DRL, with
  ``param`` values (:func:`~repro.rules.dsl.with_params`) and the
  whitelisted expressions of :mod:`repro.rules.expr`
"""

from .agenda import Activation, Agenda
from .conditions import (
    Bindings,
    ConditionError,
    Constraint,
    Pattern,
    Test,
)
from .dsl import (
    DSLSyntaxError,
    SerializationError,
    load_prl,
    parse_rules,
    rule_to_prl,
    rules_to_prl,
    with_params,
)
from .engine import FiringRecord, RuleEngine, RuleEngineError
from .facts import (
    Categorical,
    Fact,
    FactBatch,
    FactHandle,
    FactStream,
    LazyValue,
)
from .memory import WorkingMemory
from .rule import Rule, RuleBuilder, RuleContext

__all__ = [
    "Activation",
    "Agenda",
    "Bindings",
    "Categorical",
    "ConditionError",
    "Constraint",
    "DSLSyntaxError",
    "Fact",
    "FactBatch",
    "FactHandle",
    "FactStream",
    "FiringRecord",
    "LazyValue",
    "Pattern",
    "Rule",
    "RuleBuilder",
    "RuleContext",
    "RuleEngine",
    "RuleEngineError",
    "SerializationError",
    "Test",
    "WorkingMemory",
    "load_prl",
    "parse_rules",
    "rule_to_prl",
    "rules_to_prl",
    "with_params",
]
