"""Fact representation for the forward-chaining inference engine.

The paper's PerfExplorer 2.0 embeds the JBoss Rules (Drools) engine and
asserts *facts* about performance data into a working memory; rules pattern
match on fact fields.  This module provides the fact-side vocabulary:

* :class:`Fact` — a dynamically-typed record with named fields.  Facts are
  deliberately schemaless (like Drools' use of POJOs plus maps) so that
  analysis code can attach whatever context a rule might need.
* :class:`FactHandle` — the engine-issued identity of an asserted fact.
  Retraction and modification go through handles, mirroring Drools'
  ``FactHandle`` semantics, so two structurally-equal facts remain distinct
  in working memory.
* :class:`FactBatch` / :class:`FactStream` — many facts of one type held
  as columns, and the batches one analysis script emits together.  Working
  memory stores them as columns and builds a :class:`Fact` only for a row
  a rule reaches.

Facts compare by *identity* inside the engine (each assertion is a distinct
activation source) but expose value equality helpers for tests.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Any, Iterator, Mapping, Sequence


class Fact:
    """A typed record asserted into working memory.

    Parameters
    ----------
    fact_type:
        The type name rules pattern-match on (e.g. ``"MeanEventFact"``).
    fields:
        Field name → value mapping.  Values may be any Python object;
        rules compare them with the operators in
        :mod:`repro.rules.conditions`.

    Examples
    --------
    >>> f = Fact("MeanEventFact", metric="CPU_CYCLES", severity=0.25)
    >>> f["severity"]
    0.25
    >>> f.get("missing", 0.0)
    0.0
    """

    __slots__ = ("fact_type", "_fields")

    def __init__(self, fact_type: str, /, **fields: Any) -> None:
        if not fact_type or not isinstance(fact_type, str):
            raise ValueError("fact_type must be a non-empty string")
        self.fact_type = fact_type
        self._fields: dict[str, Any] = dict(fields)

    # -- mapping-style access -------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        try:
            return self._fields[name]
        except KeyError:
            raise KeyError(
                f"fact of type {self.fact_type!r} has no field {name!r}; "
                f"available: {sorted(self._fields)}"
            ) from None

    def get(self, name: str, default: Any = None) -> Any:
        """Return field ``name`` or ``default`` when absent."""
        return self._fields.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def keys(self):
        return self._fields.keys()

    def items(self):
        return self._fields.items()

    def set(self, name: str, value: Any) -> None:
        """Set field ``name``.

        Mutating a fact already in working memory does **not** re-trigger
        matching by itself — call :meth:`repro.rules.engine.RuleEngine.modify`
        with the fact's handle, exactly as Drools requires ``update()``.
        """
        self._fields[name] = value

    def as_dict(self) -> dict[str, Any]:
        """A shallow copy of the fields (safe to mutate)."""
        return dict(self._fields)

    # -- equality helpers (used by tests, not by the engine) ------------------
    def value_equals(self, other: "Fact") -> bool:
        """Structural equality: same type name and same field mapping."""
        return (
            isinstance(other, Fact)
            and self.fact_type == other.fact_type
            and self._fields == other._fields
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._fields.items()))
        return f"Fact({self.fact_type}, {inner})"

_seq_lock = threading.Lock()
_next_seq = 1


def reserve_seqs(n: int) -> int:
    """Reserve ``n`` consecutive fact sequence numbers; returns the first.

    Numbers are process-wide.  A batch assertion reserves one range for
    its whole stream, so the rows of one stream get consecutive numbers
    even while other threads' engines assert at the same time.
    """
    global _next_seq
    with _seq_lock:
        base = _next_seq
        _next_seq += n
    return base


class FactHandle:
    """Engine-issued identity token for an asserted fact.

    Handles are ordered by assertion recency (``seq``), which the agenda's
    conflict-resolution strategy uses as a tie-breaker after salience.
    Working memory passes the ``seq`` it reserved for the row; a handle
    built without one takes the next free number.
    """

    __slots__ = ("seq", "fact", "live")

    def __init__(self, fact: Fact, seq: int | None = None) -> None:
        self.seq: int = reserve_seqs(1) if seq is None else seq
        self.fact: Fact = fact
        #: False once the fact has been retracted.
        self.live: bool = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "live" if self.live else "retracted"
        return f"<FactHandle #{self.seq} {self.fact.fact_type} ({state})>"

    def __hash__(self) -> int:
        return hash(self.seq)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FactHandle) and other.seq == self.seq


class FactBatch:
    """Facts of one type held as columns.

    ``columns`` maps each field name to its list of row values (every row
    has every field).  ``positions`` gives each row's place in the stream
    it was emitted in (increasing; default ``0..n-1``): asserting the
    stream numbers each row ``base + position``, so batches of several
    types keep the order in which a script produced their rows.

    Iterating a batch, or indexing it, builds :class:`Fact` objects equal
    to the ones the script would have built one at a time.

    Examples
    --------
    >>> b = FactBatch("Edge", {"parent": ["main", "a"], "child": ["a", "b"]})
    >>> len(b), b[1]["child"]
    (2, 'b')
    """

    __slots__ = ("fact_type", "columns", "positions")

    def __init__(
        self,
        fact_type: str,
        columns: Mapping[str, Sequence[Any]],
        positions: Sequence[int] | None = None,
    ) -> None:
        if not fact_type or not isinstance(fact_type, str):
            raise ValueError("fact_type must be a non-empty string")
        self.fact_type = fact_type
        self.columns: dict[str, Sequence[Any]] = dict(columns)
        lengths = {len(col) for col in self.columns.values()}
        if positions is None:
            positions = range(lengths.pop() if lengths else 0)
        elif sorted(positions) != list(positions):
            raise ValueError("batch positions must increase")
        if lengths - {len(positions)}:
            raise ValueError(
                f"{fact_type} columns have {sorted(lengths)} rows for "
                f"{len(positions)} positions")
        self.positions: Sequence[int] = positions

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, row: int) -> Fact:
        return Fact(self.fact_type,
                    **{name: col[row] for name, col in self.columns.items()})

    def __iter__(self) -> Iterator[Fact]:
        for row in range(len(self)):
            yield self[row]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FactBatch {self.fact_type} x{len(self)}>"


class FactStream:
    """The batches one script emits, as one ordered stream of facts.

    One batch per fact type; the batches' positions together must be
    exactly ``0..len-1``.  ``len()`` counts rows, and iteration yields the
    facts in position order, so a stream stands in for the list of facts
    it replaces.
    """

    __slots__ = ("batches", "_length")

    def __init__(self, batches: Sequence[FactBatch]) -> None:
        self.batches: tuple[FactBatch, ...] = tuple(batches)
        if len({b.fact_type for b in self.batches}) != len(self.batches):
            raise ValueError("a stream holds one batch per fact type")
        self._length = sum(len(b) for b in self.batches)
        if sorted(chain.from_iterable(b.positions for b in self.batches)) \
                != list(range(self._length)):
            raise ValueError("stream positions must be 0..n-1, each once")

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Fact]:
        facts: list[Fact | None] = [None] * self._length
        for batch in self.batches:
            for row, position in enumerate(batch.positions):
                facts[position] = batch[row]
        return iter(facts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(f"{b.fact_type} x{len(b)}" for b in self.batches)
        return f"<FactStream {kinds}>"
