"""The forward-chaining rule engine (match → resolve → act loop).

:class:`RuleEngine` is the reproduction of the JBoss Rules engine embedded in
PerfExplorer 2.0.  Usage mirrors the paper's ``RuleHarness``::

    engine = RuleEngine()
    engine.add_rules(load_prl("OpenUHRules.prl"))
    engine.assert_fact(Fact("MeanEventFact", metric=..., severity=0.31, ...))
    engine.run()
    for line in engine.output:
        print(line)

Matching is a cross-product join with early pruning; the join order is the
declaration order of the rule's patterns, and constraints referencing earlier
bindings prune the cross product.  With ``indexing=True`` (the default) the
engine accelerates two layers of that loop without changing its semantics:

* candidate selection takes a pattern's rows from working memory's alpha
  memory — its binding-free tests, evaluated over the type's columns once
  per row instead of once per partial match — narrowed by the smallest
  hash bucket among its string-equality probes (literal values and
  string-valued join variables), and
* :meth:`_refresh_agenda` skips rules none of whose condition fact types
  changed since the rule last matched (dirty-type tracking via
  :meth:`WorkingMemory.type_version`).

Every indexed candidate is still verified through ``Pattern.match_one`` and
activation ordering is fully determined by the agenda's sort key, so the
activation set, conflict-resolution order, and firing trace are identical to
the naive matcher (``indexing=False``) — the test suite asserts this over
randomized rulebases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .. import observe
from .agenda import Activation, Agenda
from .conditions import Bindings, Pattern, Test
from .facts import Fact, FactBatch, FactHandle, FactStream
from .memory import WorkingMemory
from .rule import Rule, RuleContext


class RuleEngineError(Exception):
    """Raised for engine misuse or runaway rulebases."""


@dataclass
class FiringRecord:
    """Trace entry for one rule firing (supports explanation/audit)."""

    cycle: int
    rule_name: str
    fact_seqs: tuple[int, ...]
    bindings_summary: dict
    #: Sequence numbers of facts this firing's action asserted.
    asserted_seqs: tuple[int, ...] = ()
    #: Id of the telemetry span covering the cycle this firing ran in
    #: (None when telemetry is disabled) — joins the audit trail to the
    #: self-profile timeline.
    span_id: str | None = None


class RuleEngine:
    """Forward-chaining production system with salience-ordered agenda.

    Parameters
    ----------
    max_firings:
        Hard limit on total rule firings in one :meth:`run`; exceeded means a
        runaway rulebase and raises :class:`RuleEngineError`.
    echo:
        When True, :meth:`emit` also prints to stdout (the paper's rules print
        their diagnoses; benchmarks capture them instead).
    indexing:
        When True (default), candidate facts come from alpha memories and
        hash indexes over the working memory's columns, and agenda refresh
        skips rules whose condition types are unchanged.
        Semantics are identical either way; ``indexing=False`` forces the
        naive matcher (useful for differential testing and debugging).
    """

    def __init__(
        self,
        *,
        max_firings: int = 100_000,
        echo: bool = False,
        indexing: bool = True,
    ) -> None:
        self.memory = WorkingMemory()
        self.agenda = Agenda()
        self.rules: list[Rule] = []
        self._rule_names: set[str] = set()
        self.max_firings = max_firings
        self.echo = echo
        self.indexing = indexing
        #: rule name → memory version when the rule last (re)matched; rules
        #: whose condition types are all at or below this are skipped by
        #: :meth:`_refresh_agenda` (only meaningful when ``indexing``).
        self._matched_at: dict[str, int] = {}
        #: Diagnosis lines produced by rule actions via ``ctx.log``.
        self.output: list[str] = []
        #: Chronological firing trace.
        self.trace: list[FiringRecord] = []
        #: True when the last :meth:`run` stopped at ``max_cycles`` with
        #: activations still queued — quiescence was NOT reached.
        self.truncated = False
        self._cycle = 0
        #: While an action runs, collects the seqs of facts it asserts.
        self._asserting: list[int] | None = None

    # -- rulebase management --------------------------------------------------
    def add_rule(self, rule: Rule) -> None:
        if rule.name in self._rule_names:
            raise RuleEngineError(f"duplicate rule name {rule.name!r}")
        self._rule_names.add(rule.name)
        self.rules.append(rule)

    def add_rules(self, rules: Iterable[Rule]) -> None:
        for r in rules:
            self.add_rule(r)

    def remove_rule(self, name: str) -> None:
        self.rules = [r for r in self.rules if r.name != name]
        self._rule_names.discard(name)
        self._matched_at.pop(name, None)

    # -- working-memory operations ---------------------------------------
    def assert_fact(self, fact: Fact) -> FactHandle:
        handle = self.memory.assert_fact(fact)
        if self._asserting is not None:
            self._asserting.append(handle.seq)
        return handle

    def insert(self, fact_type: str, /, **fields) -> FactHandle:
        return self.assert_fact(Fact(fact_type, **fields))

    def assert_facts(
        self, facts: FactStream | FactBatch | Iterable[Fact]
    ) -> Sequence[FactHandle]:
        """Bulk assertion: one working-memory batch insert (see
        :meth:`WorkingMemory.assert_facts`)."""
        handles = self.memory.assert_facts(facts)
        if self._asserting is not None:
            self._asserting.extend(handles.seqs)
        return handles

    def retract(self, handle: FactHandle) -> None:
        self.memory.retract(handle)
        self.agenda.invalidate_dead()

    def modify(self, handle: FactHandle, **fields) -> FactHandle:
        """Drools-style update: retract + re-assert so rules re-match.

        Returns the *new* handle.
        """
        if not handle.live:
            raise RuleEngineError("cannot modify a retracted fact")
        updated = Fact(handle.fact.fact_type, **{**handle.fact.as_dict(), **fields})
        self.retract(handle)
        return self.assert_fact(updated)

    def emit(self, rule_name: str, message: str) -> None:
        line = f"[{rule_name}] {message}"
        self.output.append(line)
        observe.event("rule.output", rule=rule_name, message=message,
                      span_id=observe.current_span_id())
        if self.echo:
            # routed through the structured event log's console sink (not a
            # bare print) so the CLI and tests can capture or redirect it;
            # the scripted API keeps reading self.output either way
            observe.echo(line)

    def reset(self) -> None:
        """Clear facts, agenda, refraction state, output, and trace."""
        self.memory.clear()
        self.agenda.clear()
        self.agenda.reset_refraction()
        self.output.clear()
        self.trace.clear()
        self.truncated = False
        self._cycle = 0
        self._matched_at.clear()

    # -- matching ----------------------------------------------------------
    def _candidate_handles(
        self, cond: Pattern, bindings: Bindings
    ) -> list[FactHandle]:
        """Candidate facts for ``cond`` given ``bindings``.

        With indexing, working memory answers from the pattern's alpha
        memory (the rows passing its binding-free tests), narrowed by the
        smallest hash bucket among its string-equality probes (literal or
        string-bound join variable); otherwise it is the per-type scan.
        Either set is a superset of the matches among its type (never a
        false negative), and every candidate is re-verified by
        ``match_one``, so both paths yield the same matches.
        """
        if not self.indexing:
            return self.memory.of_type(cond.fact_type)
        probes = []
        for fieldname, value, is_variable in cond.index_plan():
            if is_variable:
                value = bindings.get(value)
                # Only string joins are hash-exact; numeric "==" is
                # approximate (see Pattern.index_plan), so anything else
                # skips the probe.
                if not isinstance(value, str):
                    continue
            probes.append((fieldname, value))
        return self.memory.candidates(cond, probes)

    def _match_rule(self, rule: Rule) -> list[Activation]:
        """All activations of ``rule`` against current working memory."""
        # Each partial is (handles-so-far, bindings-so-far).
        partials: list[tuple[tuple[FactHandle, ...], Bindings]] = [((), {})]
        for cond in rule.conditions:
            if not partials:
                return []
            if isinstance(cond, Test):
                partials = [
                    (hs, bs) for (hs, bs) in partials if cond.evaluate(bs)
                ]
                continue
            assert isinstance(cond, Pattern)
            next_partials: list[tuple[tuple[FactHandle, ...], Bindings]] = []
            if cond.negated:
                for hs, bs in partials:
                    handles = self._candidate_handles(cond, bs)
                    if not any(
                        cond.match_one(h.fact, bs) is not None for h in handles
                    ):
                        next_partials.append((hs, bs))
            else:
                for hs, bs in partials:
                    handles = self._candidate_handles(cond, bs)
                    for h, ext in cond.candidates(handles, bs):
                        if h in hs:
                            continue  # one fact cannot fill two positions
                        next_partials.append((hs + (h,), ext))
            partials = next_partials
        return [Activation(rule, hs, bs) for hs, bs in partials]

    @staticmethod
    def _condition_types(rule: Rule) -> frozenset[str]:
        """Fact types appearing anywhere in the rule's LHS (cached)."""
        types = rule.__dict__.get("_condition_types")
        if types is None:
            types = frozenset(
                cond.fact_type
                for cond in rule.conditions
                if isinstance(cond, Pattern)
            )
            rule.__dict__["_condition_types"] = types
        return types

    def _refresh_agenda(self) -> int:
        offered = 0
        version = self.memory.version
        for rule in self.rules:
            if self.indexing:
                last = self._matched_at.get(rule.name)
                if last is not None and all(
                    self.memory.type_version(t) <= last
                    for t in self._condition_types(rule)
                ):
                    # None of the rule's condition types changed since it
                    # last matched: re-matching would reproduce activations
                    # the agenda already saw (offered or refracted).
                    continue
                self._matched_at[rule.name] = version
            for activation in self._match_rule(rule):
                if self.agenda.offer(activation):
                    offered += 1
        return offered

    def _validate_negations(self, activation: Activation) -> bool:
        """Pop-time truth maintenance for negated conditions.

        ``Activation.is_live`` only sees positive handles; a fact asserted
        *after* the activation was queued can satisfy a negated pattern and
        must block the firing.  Negated patterns cannot bind, and only
        reference variables bound before them, so re-evaluating against the
        activation's final bindings is equivalent to the original check.
        """
        negated = activation.rule.__dict__.get("_negated_conditions")
        if negated is None:
            negated = tuple(
                cond
                for cond in activation.rule.conditions
                if isinstance(cond, Pattern) and cond.negated
            )
            activation.rule.__dict__["_negated_conditions"] = negated
        for cond in negated:
            handles = self._candidate_handles(cond, activation.bindings)
            if any(
                cond.match_one(h.fact, activation.bindings) is not None
                for h in handles
            ):
                return False
        return True

    # -- execution ---------------------------------------------------------
    def run(self, *, max_cycles: int | None = None) -> int:
        """Fire rules to quiescence; returns the number of firings.

        One *cycle* = refresh agenda from working memory, then fire every
        queued activation (newly asserted facts are matched at the start of
        the next cycle — i.e. breadth-first semantics, which keeps salience
        meaningful across a cascade).
        """
        firings = 0
        cycles = 0
        self.truncated = False
        with observe.span("rules.run", rules=len(self.rules),
                          facts=len(self.memory)) as run_span:
            while True:
                self._cycle += 1
                cycles += 1
                if max_cycles is not None and cycles > max_cycles:
                    # Breaking out mid-cascade is NOT quiescence: facts
                    # asserted in the last cycle may still activate rules.
                    # Refresh once so the undrained activations are visible,
                    # flag the truncation, and leave them queued — a later
                    # run() picks them up, and explain() says so instead of
                    # silently looking quiescent.
                    offered = self._refresh_agenda()
                    self.truncated = offered > 0 or len(self.agenda) > 0
                    if self.truncated:
                        observe.event(
                            "rules.truncated", cycle=self._cycle,
                            queued=len(self.agenda),
                            span_id=observe.current_span_id(),
                        )
                    break
                with observe.span("rules.cycle", cycle=self._cycle) as cyc:
                    if self._refresh_agenda() == 0 and len(self.agenda) == 0:
                        break
                    observe.histogram("rules.agenda_size").observe(
                        len(self.agenda))
                    cycle_span_id = observe.current_span_id()
                    fired_this_cycle = 0
                    while True:
                        activation = self.agenda.pop(self._validate_negations)
                        if activation is None:
                            break
                        firings += 1
                        fired_this_cycle += 1
                        if firings > self.max_firings:
                            raise RuleEngineError(
                                f"rulebase exceeded {self.max_firings} firings; "
                                "likely a self-activating rule without no_loop"
                            )
                        ctx = RuleContext(self, activation.rule, activation.bindings, activation.handles)
                        before = len(self.memory)
                        self._asserting = []
                        try:
                            activation.rule.action(ctx)
                        finally:
                            asserted = tuple(self._asserting)
                            self._asserting = None
                        self.trace.append(
                            FiringRecord(
                                cycle=self._cycle,
                                rule_name=activation.rule.name,
                                fact_seqs=tuple(h.seq for h in activation.handles),
                                bindings_summary=_summarize_bindings(activation.bindings),
                                asserted_seqs=asserted,
                                span_id=cycle_span_id,
                            )
                        )
                        if activation.rule.no_loop and len(self.memory) > before:
                            # Refract this rule against facts it just asserted by
                            # pre-registering the would-be activations.
                            for new_act in self._match_rule(activation.rule):
                                self.agenda.mark_fired(new_act.key)
                    cyc.set(fired=fired_this_cycle)
                if fired_this_cycle == 0:
                    break
            observe.counter("rules.firings").inc(firings)
            run_span.set(firings=firings, cycles=cycles,
                         truncated=self.truncated)
        return firings

    # -- inspection ----------------------------------------------------------
    def facts(self, fact_type: str) -> list[Fact]:
        return self.memory.facts_of_type(fact_type)

    def explain(self, fact_type: str = "Recommendation") -> list[str]:
        """Render the firing trace (which rules fired, on what facts)."""
        lines = []
        for rec in self.trace:
            facts = ",".join(str(s) for s in rec.fact_seqs)
            lines.append(
                f"cycle {rec.cycle}: {rec.rule_name} fired on facts [{facts}]"
            )
        if self.truncated:
            lines.append(
                f"[TRUNCATED] run() stopped at max_cycles with "
                f"{len(self.agenda)} activation(s) still queued — the "
                "rulebase did NOT reach quiescence"
            )
        return lines

    # -- explanation chains (the Poirot/Hercule 'why' question) ------------
    def handle_of(self, fact: Fact) -> FactHandle | None:
        """The live handle holding ``fact`` (by identity), if any."""
        for handle in self.memory:
            if handle.fact is fact:
                return handle
        return None

    def provenance_of(self, seq: int) -> FiringRecord | None:
        """The firing that asserted fact ``seq`` (None = asserted by the
        application, i.e. an input fact)."""
        for rec in self.trace:
            if seq in rec.asserted_seqs:
                return rec
        return None

    def why(self, fact: Fact, *, _depth: int = 0, _max_depth: int = 8) -> list[str]:
        """An explanation chain: which rule produced this fact, matched on
        which facts, recursively back to the input data.

        Returns indented lines; an empty list means the fact is unknown to
        this engine.
        """
        handle = self.handle_of(fact)
        if handle is None:
            return []
        return self._why_seq(handle.seq, _depth, _max_depth)

    def _why_seq(self, seq: int, depth: int, max_depth: int) -> list[str]:
        pad = "  " * depth
        rec = self.provenance_of(seq)
        fact = self._fact_by_seq(seq)
        label = f"<{fact.fact_type}>" if fact is not None else f"fact #{seq}"
        if rec is None:
            return [f"{pad}{label} (#{seq}): asserted by the analysis script"]
        lines = [
            f"{pad}{label} (#{seq}): asserted by rule {rec.rule_name!r} "
            f"matching facts {list(rec.fact_seqs)}"
        ]
        if depth + 1 < max_depth:
            for parent_seq in rec.fact_seqs:
                lines.extend(self._why_seq(parent_seq, depth + 1, max_depth))
        return lines

    def _fact_by_seq(self, seq: int) -> Fact | None:
        handle = self.memory.handle(seq)
        return handle.fact if handle is not None and handle.live else None


def _summarize_bindings(bindings: Bindings) -> dict:
    """Compact, repr-safe view of bindings for the firing trace."""
    out = {}
    for k, v in bindings.items():
        if isinstance(v, Fact):
            out[k] = f"<{v.fact_type}>"
        elif isinstance(v, float):
            out[k] = round(v, 6)
        else:
            out[k] = v if isinstance(v, (int, str, bool)) else repr(v)[:60]
    return out
