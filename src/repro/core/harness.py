"""RuleHarness: the scripting-facing wrapper around the rule engine.

Mirrors the paper's Fig. 1 usage::

    ruleHarness = RuleHarness.useGlobalRules("openuh/OpenUHRules.drl")
    ...
    ruleHarness.assertObject(fact)
    ruleHarness.processRules()

``useGlobalRules`` installs a process-global harness (what the Jython
scripts rely on); tests and library callers can equally construct private
harnesses.  Rule arguments may be a ``.prl`` file path, rule text, an
iterable of :class:`~repro.rules.Rule`, or a named rulebase registered by
:mod:`repro.knowledge`.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Iterable, Sequence

from ..rules import Fact, Rule, RuleEngine, parse_rules
from .result import AnalysisError

#: Named rulebases registered by repro.knowledge (name → cached factory).
_REGISTERED_RULEBASES: dict[str, callable] = {}

_global_harness: "RuleHarness | None" = None


def register_rulebase(name: str, factory) -> None:
    """Register a named rulebase factory (returns a list of Rules).

    The factory runs once, on the name's first use; every harness that
    resolves the name shares those immutable, stateless rules.
    """
    _REGISTERED_RULEBASES[name] = functools.cache(lambda: tuple(factory()))


def registered_rulebases() -> list[str]:
    return sorted(_REGISTERED_RULEBASES)


def _resolve_rules(source) -> list[Rule]:
    if source is None:
        return []
    if isinstance(source, Rule):
        return [source]
    if isinstance(source, (list, tuple)):
        return list(source)
    if isinstance(source, Path):
        return parse_rules(source.read_text())
    if isinstance(source, str):
        if source not in _REGISTERED_RULEBASES:
            # the shipped rulebases register on import of repro.knowledge;
            # pull it in so "openuh-rules" resolves without a manual import
            import importlib

            importlib.import_module("repro.knowledge")
        if source in _REGISTERED_RULEBASES:
            return list(_REGISTERED_RULEBASES[source]())
        path = Path(source)
        if path.suffix == ".prl" and path.is_file():
            return parse_rules(path.read_text())
        if "rule " in source or "rule\t" in source:
            return parse_rules(source)
        raise AnalysisError(
            f"cannot resolve rulebase {source!r}: not a registered name "
            f"({registered_rulebases()}), not an existing .prl file, and "
            "not rule text"
        )
    raise AnalysisError(f"cannot resolve rules from {type(source).__name__}")


class RuleHarness:
    """Holds a rule engine plus the convenience entry points scripts use."""

    def __init__(self, rules=None, *, echo: bool = False) -> None:
        self.engine = RuleEngine(echo=echo)
        if rules is not None:
            self.engine.add_rules(_resolve_rules(rules))

    # -- the paper's API --------------------------------------------------
    @classmethod
    def useGlobalRules(cls, rules, *, echo: bool = False) -> "RuleHarness":
        """Create and install the process-global harness (Fig. 1, line 1)."""
        global _global_harness
        _global_harness = cls(rules, echo=echo)
        return _global_harness

    @classmethod
    def getInstance(cls) -> "RuleHarness":
        if _global_harness is None:
            raise AnalysisError(
                "no global RuleHarness; call RuleHarness.useGlobalRules(...) first"
            )
        return _global_harness

    @classmethod
    def clearGlobal(cls) -> None:
        global _global_harness
        _global_harness = None

    def addRules(self, rules) -> "RuleHarness":
        self.engine.add_rules(_resolve_rules(rules))
        return self

    def assertObject(self, fact: Fact):
        """Assert one fact (Drools' ``insert``)."""
        return self.engine.assert_fact(fact)

    def assertObjects(self, facts: Iterable[Fact]) -> None:
        """Bulk assert (batched: one working-memory insert pass)."""
        self.engine.assert_facts(facts)

    def processRules(self) -> int:
        """Fire until quiescent; returns number of firings."""
        return self.engine.run()

    # -- results ----------------------------------------------------------
    @property
    def output(self) -> list[str]:
        return self.engine.output

    def recommendations(self) -> list[Fact]:
        """All ``Recommendation`` facts asserted by fired rules, ordered by
        descending severity (unknown severities last)."""
        recs = self.engine.facts("Recommendation")
        return sorted(recs, key=lambda f: -float(f.get("severity", -1.0)))

    def facts(self, fact_type: str) -> list[Fact]:
        return self.engine.facts(fact_type)

    def explain(self) -> list[str]:
        return self.engine.explain()

    def why(self, fact: Fact) -> str:
        """Explanation chain for one fact (typically a Recommendation):
        which rule asserted it, matched on which facts, back to the
        analysis script's inputs."""
        lines = self.engine.why(fact)
        if not lines:
            return "(fact unknown to this harness)"
        return "\n".join(lines)

    def reset(self) -> None:
        self.engine.reset()
