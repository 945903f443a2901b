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
* :class:`Categorical` — a batch column of names coded against a names
  table, which working memory indexes by sorting the codes; and
  :class:`LazyValue` — a batch cell computed only when something reads it.

Facts compare by *identity* inside the engine (each assertion is a distinct
activation source) but expose value equality helpers for tests.
"""

from __future__ import annotations

import threading
from itertools import chain, repeat
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np


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


class LazyValue:
    """A batch cell that stands for ``fn(arg)`` and computes it on first
    read.

    Working memory resolves it when it builds a :class:`Fact` for the row
    or when a value test reaches the row, so a costly value no rule reads
    (a ``repr`` of a 10,000-edge callgraph) is never computed.  A
    :class:`Fact` always carries the resolved value.
    """

    __slots__ = ("_call", "_value")

    def __init__(self, fn: Callable[[Any], Any], arg: Any) -> None:
        self._call: tuple | None = (fn, arg)

    def get(self) -> Any:
        if self._call is not None:
            fn, arg = self._call
            self._value, self._call = fn(arg), None
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<LazyValue>"


def _resolved(value: Any) -> Any:
    """``value``, or what it stands for if it is a :class:`LazyValue`."""
    return value.get() if type(value) is LazyValue else value


class Categorical(Sequence):
    """A batch column of names, coded against a table of distinct names.

    ``values`` keeps every row's value.  ``codes[row]`` is the position of
    that value in ``names``; a string outside the table has code
    ``len(names)`` and any other value ``len(names) + 1``.  Working memory
    indexes such a column by a stable sort of its codes instead of hashing
    every row, and an analysis can join rows on their codes.

    Examples
    --------
    >>> c = Categorical(["main", "ext", "main"], ["main", "solve"])
    >>> c.codes.tolist(), c[1]
    ([0, 2, 0], 'ext')
    """

    __slots__ = ("values", "lookup", "codes")

    def __init__(self, values: Sequence[Any], names: Sequence[str]) -> None:
        self.values = values if isinstance(values, list) else list(values)
        #: name → code
        self.lookup = {name: code for code, name in enumerate(names)}
        if len(self.lookup) != len(names):
            raise ValueError("a categorical names table must be distinct")
        self.codes: np.ndarray = _encode(self.values, self.lookup)

    def take(self, rows: Sequence[int] | np.ndarray) -> "Categorical":
        """The column of ``rows`` only, against the same table."""
        rows = np.asarray(rows, dtype=np.intp)
        out = Categorical.__new__(Categorical)
        out.values = [self.values[r] for r in rows.tolist()]
        out.lookup, out.codes = self.lookup, self.codes[rows]
        return out

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, row):
        return self.values[row]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Categorical x{len(self)} of {len(self.lookup)} names>"


def _encode(values: list, lookup: dict[str, int]) -> np.ndarray:
    other = len(lookup)
    if set(map(type, values)) <= {str}:  # no per-row Python: map runs in C
        coded = map(lookup.get, values, repeat(other))
    else:
        coded = (lookup.get(v, other) if isinstance(v, str) else other + 1
                 for v in values)
    return np.fromiter(coded, dtype=np.intp, count=len(values))


class FactBatch:
    """Facts of one type held as columns.

    ``columns`` maps each field name to its row values (every row has
    every field): a list, or a :class:`Categorical`; a cell may be a
    :class:`LazyValue`.  ``positions`` gives each row's place in the stream
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
        return Fact(self.fact_type, **{
            name: _resolved(col[row]) for name, col in self.columns.items()})

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
        n = self._length = sum(len(b) for b in self.batches)
        # n positions in 0..n-1 with none repeated are each of 0..n-1 once
        positions = np.fromiter(
            chain.from_iterable(b.positions for b in self.batches),
            np.int64, count=n)
        if n and (positions.min() < 0 or positions.max() >= n
                  or np.bincount(positions, minlength=n).max() > 1):
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
