"""Agenda: conflict set management and resolution.

After each match cycle every (rule, fact-tuple, bindings) triple that
satisfies a rule's LHS becomes an :class:`Activation`.  The agenda orders
activations by

1. **salience** (descending) — the rule author's explicit priority,
2. **recency** (descending max fact sequence number) — prefer rules matching
   newer data, Drools' default tie-break,
3. **specificity** (descending constraint count) — more specific rules first,
4. rule name — a deterministic final tie-break so runs are reproducible.

Refraction is enforced with a fired-set keyed on
``(rule name, tuple of fact handle seqs)``: a rule never fires twice on the
same combination of facts, but does fire again if any participating fact is
retracted and re-asserted (new handle → new key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .conditions import Bindings
from .facts import FactHandle
from .rule import Rule

ActivationKey = tuple[str, tuple[int, ...]]


@dataclass
class Activation:
    """One fireable (rule, matched facts, bindings) combination."""

    rule: Rule
    handles: tuple[FactHandle, ...]
    bindings: Bindings

    @property
    def key(self) -> ActivationKey:
        return (self.rule.name, tuple(h.seq for h in self.handles))

    @property
    def recency(self) -> int:
        return max((h.seq for h in self.handles), default=0)

    @property
    def specificity(self) -> int:
        """Sum of per-condition specificities.

        Each condition scores itself (`Pattern`: constraint count + 1 so the
        type test counts; `Test`: 1) — a bare ``Type()`` pattern no longer
        ties with ``Type(f == x)``, and adding a test to a rule makes it
        strictly more specific.
        """
        cached = self.rule.__dict__.get("_specificity")
        if cached is None:
            cached = sum(cond.specificity for cond in self.rule.conditions)
            self.rule.__dict__["_specificity"] = cached
        return cached

    def sort_key(self):
        return (
            -self.rule.salience,
            -self.recency,
            -self.specificity,
            self.rule.name,
        )

    def is_live(self) -> bool:
        """True while every participating fact is still in working memory."""
        return all(h.live for h in self.handles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        seqs = ",".join(str(h.seq) for h in self.handles)
        return f"<Activation {self.rule.name} on facts [{seqs}]>"


class Agenda:
    """Ordered conflict set with refraction.

    Internally a *lazy heap*: activations are pushed with their sort key;
    entries whose key left ``_activations`` (fired, superseded, or
    invalidated) are discarded when they surface.  ``pop`` is therefore
    O(log n) amortized instead of the naive O(n) scan — which matters when
    join rules create cross-product conflict sets.
    """

    def __init__(self) -> None:
        self._activations: dict[ActivationKey, Activation] = {}
        self._fired: set[ActivationKey] = set()
        self._heap: list[tuple[tuple, ActivationKey]] = []

    def offer(self, activation: Activation) -> bool:
        """Add ``activation`` unless refracted or already queued.

        Returns True if the activation was (or already is) queued.
        """
        import heapq

        key = activation.key
        if key in self._fired:
            return False
        if key not in self._activations:
            self._activations[key] = activation
            heapq.heappush(self._heap, (activation.sort_key(), key))
        return True

    def pop(
        self, validator: Callable[[Activation], bool] | None = None
    ) -> Activation | None:
        """Remove and return the highest-priority live activation.

        ``validator`` is an extra pop-time check (the engine re-evaluates
        negated conditions here, since :meth:`Activation.is_live` can only
        see the positive facts).  An activation the validator rejects is
        dropped **without** being marked fired — if its blocker is later
        retracted, a refresh re-offers it.
        """
        import heapq

        while self._heap:
            _, key = heapq.heappop(self._heap)
            activation = self._activations.pop(key, None)
            if activation is None:
                continue  # stale heap entry (already fired/invalidated)
            if not activation.is_live():
                # Dead activation (a participating fact was retracted): drop
                # it silently and look for the next one.
                continue
            if validator is not None and not validator(activation):
                continue
            self._fired.add(key)
            return activation
        return None

    def mark_fired(self, key: ActivationKey) -> None:
        self._fired.add(key)

    def invalidate_dead(self) -> int:
        """Drop activations whose facts were retracted; returns count."""
        dead = [k for k, a in self._activations.items() if not a.is_live()]
        for k in dead:
            del self._activations[k]
        return len(dead)

    def __len__(self) -> int:
        return len(self._activations)

    def clear(self) -> None:
        self._activations.clear()
        self._heap.clear()

    def reset_refraction(self) -> None:
        """Forget firing history (used when the engine is fully reset)."""
        self._fired.clear()

    def pending(self) -> list[Activation]:
        """Snapshot of queued activations in firing order (for inspection)."""
        return sorted(self._activations.values(), key=Activation.sort_key)