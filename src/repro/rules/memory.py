"""Working memory: the fact store the engine matches against.

Each fact type has one columnar store: a column per field, and per row its
sequence number and — once a rule reaches the row — its
:class:`~repro.rules.facts.FactHandle`.  A :class:`~repro.rules.facts.FactBatch`
or :class:`~repro.rules.facts.FactStream` is asserted by extending the
columns, with one sequence range reserved for the whole stream; a single
:class:`~repro.rules.facts.Fact` is a one-row append that keeps the caller's
object as the row's fact, and its values enter a column when a pattern
first reads that field.  A batch row's ``Fact`` and handle are built on
first reach and cached, so a handle's identity is stable.

Two per-type acceleration structures answer the indexed matcher, both
built from the columns and caught up with a cursor as rows arrive:

* alpha memories — for one pattern, the rows that pass its binding-free
  tests (:meth:`~repro.rules.conditions.Pattern.alpha_tests`), evaluated
  once per row rather than once per partial match;
* field indexes — ``string value → rows`` buckets that answer an
  equality-constrained probe (:meth:`lookup`) without a type scan.  Rows
  from a :class:`~repro.rules.facts.Categorical` batch column are bucketed
  by a stable ``argsort`` of their codes; other rows by hashing each value.

A batch cell holding a :class:`~repro.rules.facts.LazyValue` is computed
when a value test reaches its row or a ``Fact`` is built for the row.

Retraction is tombstone-based: handles flip to ``live=False`` and are swept
lazily, so iteration during a match cycle is stable.  Every mutation bumps a
global version and the touched type's version; the engine's incremental
refresh (:meth:`~repro.rules.engine.RuleEngine._refresh_agenda`) uses
:meth:`type_version` to skip rules whose condition types have not changed
since they last matched.  Mutating an asserted fact in place is not
re-matched (and may not be seen by the columns): use
:meth:`~repro.rules.engine.RuleEngine.modify`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

import numpy as np

from .facts import (
    Categorical,
    Fact,
    FactBatch,
    FactHandle,
    FactStream,
    LazyValue,
    reserve_seqs,
)


class _CodedRows:
    """The rows of one categorical batch column, grouped by code: a stable
    ``argsort`` of the codes and each code's bounds in it.

    A probe maps to one code: its position in the names table, or the
    "not in the table" code, whose rows are a superset that the caller
    re-verifies.  Each code's row list is built on its first probe.
    """

    __slots__ = ("start", "lookup", "order", "bounds", "cache")

    def __init__(self, start: int, lookup: dict, codes: np.ndarray) -> None:
        self.start, self.lookup = start, lookup
        self.order = np.argsort(codes, kind="stable")
        self.bounds = np.zeros(len(lookup) + 3, dtype=np.intp)
        np.cumsum(np.bincount(codes, minlength=len(lookup) + 2),
                  out=self.bounds[1:])
        self.cache: dict[int, list[int]] = {}

    def code_rows(self, code: int) -> list[int]:
        rows = self.cache.get(code)
        if rows is None:
            picked = self.order[self.bounds[code]:self.bounds[code + 1]]
            rows = self.cache[code] = (picked + self.start).tolist()
        return rows

    def rows(self, value) -> list[int]:
        """Rows that may hold ``value``; TypeError if it is unhashable."""
        return self.code_rows(self.lookup.get(value, len(self.lookup)))


class _FieldIndex:
    """Buckets for one (fact type, field): string value → rows.

    ``cursor`` counts how many of the type's rows have been folded in;
    :meth:`_TypeStore.bucket` catches the index up before answering, so
    assertion never pays per-index bookkeeping.  Rows of a categorical
    batch column are grouped by code (``coded``); every other row holding
    a string goes to a hash bucket, because only a string probe is
    hash-exact against it.  A row holding anything else goes to
    ``overflow`` and is returned for every probe: approximate ``==``
    parses a string probe against a float (``1.0`` matches ``"1.0"``
    although the two hash apart), and other objects could compare equal
    to anything through a custom ``__eq__``.
    """

    __slots__ = ("cursor", "buckets", "coded", "overflow")

    def __init__(self) -> None:
        self.cursor = 0
        self.buckets: dict[str, list[int]] = {}
        self.coded: list[_CodedRows] = []
        self.overflow: list[int] = []

    def absorb(self, column: list, n: int,
               runs: Sequence[tuple[int, dict, np.ndarray]]) -> None:
        """Fold in rows ``cursor..n``; ``runs`` are the column's
        categorical runs ``(first row, names → code, codes)``."""
        row = self.cursor
        for start, lookup, codes in runs:
            if start < self.cursor:
                continue
            self._hash(column, row, start)
            coded = _CodedRows(start, lookup, codes)
            self.coded.append(coded)
            self.overflow.extend(coded.code_rows(len(lookup) + 1))
            row = start + len(codes)
        self._hash(column, row, n)
        self.cursor = n

    def _hash(self, column: list, start: int, stop: int) -> None:
        buckets = self.buckets
        for row, value in zip(range(start, stop), column[start:stop]):
            if isinstance(value, str):
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = [row]
                else:
                    bucket.append(row)
            elif value is not _MISSING:  # absent fields never match ==
                self.overflow.append(row)


class _AlphaMemory:
    """The rows of one type that pass one pattern's alpha tests.

    ``rows`` is in row (= sequence) order and ``mask[row]`` is 1 for a
    survivor; ``cursor`` counts the rows already tested.  The pattern is
    held so that the ``id`` keying the cache stays its own.
    """

    __slots__ = ("pattern", "cursor", "rows", "mask")

    def __init__(self, pattern) -> None:
        self.pattern = pattern
        self.cursor = 0
        self.rows: list[int] = []
        self.mask = bytearray()

    def absorb(self, store: "_TypeStore", n: int) -> None:
        start = self.cursor
        tests = self.pattern.alpha_tests()
        # Every row of a categorical run holds its field, so rows in a run
        # of each field a presence-only pattern tests pass without a look.
        spans = [(start, n)] if all(op is None for _, op, _ in tests) else []
        for fieldname, _, _ in tests if spans else ():
            runs = [(first, first + len(codes))
                    for first, _, codes in store.codes.get(fieldname, ())]
            spans = [(max(a, s), min(b, e)) for a, b in spans
                     for s, e in runs if max(a, s) < min(b, e)]
        self.mask.extend(bytes(n - start))
        row = start
        for a, b in [*spans, (n, n)]:
            rows = self._tested(store, tests, range(row, a))
            for r in rows:
                self.mask[r] = 1
            self.rows.extend(rows)
            self.mask[a:b] = b"\x01" * (b - a)
            self.rows.extend(range(a, b))
            row = b
        self.cursor = n

    @staticmethod
    def _tested(store: "_TypeStore", tests, rows: Iterable[int]) -> list[int]:
        """The ``rows`` that pass ``tests``, in order."""
        #: rows whose test raised something other than TypeError: kept
        #: untested, so that match_one meets the same error in order
        undecided: list[int] = []
        for fieldname, op, value in tests:
            column = store.column(fieldname)
            if op is None:
                rows = [r for r in rows if column[r] is not _MISSING]
                continue
            kept = []
            for r in rows:
                actual = column[r]
                if actual is _MISSING:
                    continue
                if type(actual) is LazyValue:
                    actual = actual.get()
                try:
                    if op(actual, value):
                        kept.append(r)
                except TypeError:
                    pass  # incomparable types: no match, as in evaluate()
                except Exception:
                    undecided.append(r)
            rows = kept
        rows = list(rows)
        return sorted(rows + undecided) if undecided else rows


class _TypeStore:
    """One fact type's rows: each row's sequence number and handle (built
    on first reach for a batch row, kept from assertion for a fact), and a
    column per field (``_MISSING`` where a row lacks the field).

    A batch extends the columns it carries; a categorical column also
    records its run of codes in ``codes``.  A row that arrives as a
    :class:`Fact` enters a column only when something reads that field
    (:meth:`column`), so asserting facts no pattern tests costs no column
    work.
    """

    __slots__ = ("fact_type", "columns", "codes", "seqs", "handles",
                 "indexes", "alphas")

    def __init__(self, fact_type: str) -> None:
        self.fact_type = fact_type
        self.columns: dict[str, list] = {}
        #: fieldname → its categorical runs: (first row, names → code, codes)
        self.codes: dict[str, list[tuple[int, dict, np.ndarray]]] = {}
        self.seqs: list[int] = []
        self.handles: list[FactHandle | None] = []
        #: fieldname → _FieldIndex (built lazily by bucket()).
        self.indexes: dict[str, _FieldIndex] = {}
        #: id(pattern) → _AlphaMemory (built lazily by alpha()).
        self.alphas: dict[int, _AlphaMemory] = {}

    def __len__(self) -> int:
        return len(self.seqs)

    def column(self, name: str) -> list:
        """Field ``name`` for every row, caught up from the facts of the
        rows appended since it was last read (a batch row past a column's
        end lacks that field)."""
        column = self.columns.get(name)
        if column is None:
            column = self.columns[name] = []
        if len(column) < len(self.seqs):
            column.extend([
                _MISSING if h is None else h.fact._fields.get(name, _MISSING)
                for h in self.handles[len(column):]])
        return column

    def append_batch(self, batch: FactBatch, base: int) -> None:
        start = len(self.seqs)
        for name, values in batch.columns.items():
            if isinstance(values, Categorical):
                self.codes.setdefault(name, []).append(
                    (start, values.lookup, values.codes))
                values = values.values
            self.column(name).extend(values)
        self.seqs.extend([base + p for p in batch.positions])
        self.handles.extend([None] * len(batch))

    def append_facts(self, handles: list[FactHandle]) -> None:
        """Append rows that arrive as facts; each handle keeps its fact."""
        self.seqs.extend([h.seq for h in handles])
        self.handles.extend(handles)

    def handle(self, row: int) -> FactHandle:
        """Row ``row``'s handle, building its fact on first reach."""
        handle = self.handles[row]
        if handle is None:
            fact = Fact(self.fact_type, **{
                name: value.get() if type(value) is LazyValue else value
                for name, column in self.columns.items()
                if row < len(column)
                and (value := column[row]) is not _MISSING})
            handle = self.handles[row] = FactHandle(fact, self.seqs[row])
        return handle

    def live_handles(self, rows: Iterable[int]) -> list[FactHandle]:
        out = []
        handles = self.handles
        for row in rows:
            handle = handles[row]
            if handle is None:
                out.append(self.handle(row))
            elif handle.live:
                out.append(handle)
        return out

    def alpha(self, pattern) -> _AlphaMemory:
        memory = self.alphas.get(id(pattern))
        if memory is None:
            memory = self.alphas[id(pattern)] = _AlphaMemory(pattern)
        if memory.cursor < len(self.seqs):
            memory.absorb(self, len(self.seqs))
        return memory

    def bucket(self, fieldname: str, value) -> list[int]:
        """Rows whose ``fieldname`` is the string ``value``, plus the rows
        holding a value that is not a string, in row order.  Raises
        TypeError for an unhashable ``value``."""
        index = self.indexes.get(fieldname)
        if index is None:
            index = self.indexes[fieldname] = _FieldIndex()
        if index.cursor < len(self.seqs):
            index.absorb(self.column(fieldname), len(self.seqs),
                         self.codes.get(fieldname, ()))
        bucket = index.buckets.get(value, [])
        parts = [bucket] if bucket else []
        for coded in index.coded:
            rows = coded.rows(value)
            if rows:
                parts.append(rows)
        if index.overflow:
            parts.append(index.overflow)
        if len(parts) == 1:
            return parts[0]
        return sorted(chain.from_iterable(parts))

    def compact(self) -> int:
        """Drop retracted rows; returns how many.  Row numbers change, so
        the alpha memories and field indexes are dropped too, and each
        categorical run keeps the codes of its surviving rows."""
        keep = [r for r, h in enumerate(self.handles) if h is None or h.live]
        dropped = len(self.seqs) - len(keep)
        if dropped:
            for name in self.columns:
                column = self.column(name)
                self.columns[name] = [column[r] for r in keep]
            for name, runs in self.codes.items():
                kept = []
                for start, lookup, codes in runs:
                    lo = bisect_left(keep, start)
                    hi = bisect_left(keep, start + len(codes))
                    if hi > lo:
                        rows = np.array(keep[lo:hi], dtype=np.intp) - start
                        kept.append((lo, lookup, codes[rows]))
                self.codes[name] = kept
            self.seqs = [self.seqs[r] for r in keep]
            self.handles = [self.handles[r] for r in keep]
            self.indexes.clear()
            self.alphas.clear()
        return dropped


class _AssertedHandles(Sequence):
    """The handles of one assertion's rows, by position: row ``i`` has
    sequence number ``base + i``.  A handle is built when it is read."""

    def __init__(self, memory: "WorkingMemory", base: int, n: int) -> None:
        self._memory = memory
        self.seqs = range(base, base + n)

    def __len__(self) -> int:
        return len(self.seqs)

    def __getitem__(self, i: int) -> FactHandle:
        handle = self._memory.handle(self.seqs[i])
        if handle is None:
            raise LookupError(f"fact #{self.seqs[i]} was swept from memory")
        return handle


class WorkingMemory:
    """Columnar, type-partitioned fact store with tombstone retraction."""

    def __init__(self) -> None:
        self._stores: dict[str, _TypeStore] = {}
        self._live_count = 0
        #: Bumped on every assert/retract; the engine's dirty-type refresh
        #: compares against per-type versions.
        self._version = 0
        self._type_versions: dict[str, int] = {}

    def _touch(self, fact_type: str) -> None:
        self._version += 1
        self._type_versions[fact_type] = self._version

    def _store(self, fact_type: str) -> _TypeStore:
        store = self._stores.get(fact_type)
        if store is None:
            store = self._stores[fact_type] = _TypeStore(fact_type)
        return store

    # -- mutation -------------------------------------------------------------
    def assert_fact(self, fact: Fact) -> FactHandle:
        """Insert ``fact`` and return its handle."""
        handle = FactHandle(fact)
        self._store(fact.fact_type).append_facts([handle])
        self._live_count += 1
        self._touch(fact.fact_type)
        return handle

    def assert_facts(
        self, facts: FactStream | FactBatch | Iterable[Fact]
    ) -> Sequence[FactHandle]:
        """Bulk insert: one sequence range for the whole input, one version
        bump per touched type.

        A :class:`FactStream` or :class:`FactBatch` extends its types'
        columns and builds no per-row object; any other iterable is taken
        as facts, each appended as a row that keeps its object.  Returns
        the rows' handles in input order, each built when it is read.
        """
        if isinstance(facts, FactBatch):
            facts = FactStream([facts])
        if isinstance(facts, FactStream):
            n = len(facts)
            base = reserve_seqs(n)
            for batch in facts.batches:
                if len(batch):
                    self._store(batch.fact_type).append_batch(batch, base)
            touched = {batch.fact_type for batch in facts.batches if len(batch)}
        else:
            facts = list(facts)
            n = len(facts)
            base = reserve_seqs(n)
            touched = {}
            for i, fact in enumerate(facts):
                touched.setdefault(fact.fact_type, []).append(
                    FactHandle(fact, base + i))
            for fact_type, handles in touched.items():
                self._store(fact_type).append_facts(handles)
        self._live_count += n
        for fact_type in touched:
            self._touch(fact_type)
        return _AssertedHandles(self, base, n)

    def retract(self, handle: FactHandle) -> None:
        """Remove the fact behind ``handle``. Idempotent."""
        if handle.live:
            handle.live = False
            self._live_count -= 1
            self._touch(handle.fact.fact_type)

    def sweep(self) -> int:
        """Physically remove tombstones; returns how many were swept.

        Compacted types drop their alpha memories and field indexes (their
        row numbers would dangle); they rebuild on the next use.
        """
        swept = 0
        for fact_type, store in list(self._stores.items()):
            swept += store.compact()
            if not len(store):
                del self._stores[fact_type]
        return swept

    def clear(self) -> None:
        for store in self._stores.values():
            for h in store.handles:
                if h is not None:
                    h.live = False
        self._stores.clear()
        self._version += 1
        self._type_versions.clear()
        self._live_count = 0

    # -- queries ----------------------------------------------------------
    def of_type(self, fact_type: str) -> list[FactHandle]:
        """Live handles of one type, in assertion order."""
        store = self._stores.get(fact_type)
        if store is None:
            return []
        return store.live_handles(range(len(store)))

    def facts_of_type(self, fact_type: str) -> list[Fact]:
        return [h.fact for h in self.of_type(fact_type)]

    def handle(self, seq: int) -> FactHandle | None:
        """The handle of fact ``seq`` (live or retracted), None once swept."""
        for store in self._stores.values():
            row = bisect_left(store.seqs, seq)
            if row < len(store.seqs) and store.seqs[row] == seq:
                return store.handle(row)
        return None

    def candidates(self, pattern, probes: Iterable[tuple[str, str]]
                   ) -> list[FactHandle]:
        """Live handles of ``pattern``'s type that pass its alpha tests and
        fall in the smallest of the ``(field, string)`` probe buckets, in
        assertion order (the indexed matcher's candidate set).

        Callers re-verify candidates through ``Pattern.match_one``: the
        alpha tests are exact, the buckets a superset of the string-equality
        matches.
        """
        store = self._stores.get(pattern.fact_type)
        if store is None:
            return []
        alpha = store.alpha(pattern)
        best = None
        for fieldname, value in probes:
            rows = store.bucket(fieldname, value)
            if best is None or len(rows) < len(best):
                best = rows
                if not best:
                    return []
        if best is None or len(best) >= len(alpha.rows):
            return store.live_handles(alpha.rows)
        mask = alpha.mask
        return store.live_handles([r for r in best if mask[r]])

    def lookup(self, fact_type: str, fieldname: str, value) -> list[FactHandle]:
        """Live handles of ``fact_type`` whose ``fieldname`` is the string
        ``value`` (field-index probe).

        Callers are expected to re-verify candidates through
        ``Pattern.match_one`` — the index guarantees no false negatives for
        string probes, nothing more.  Stored values that are not strings
        are always returned.
        """
        store = self._stores.get(fact_type)
        if store is None:
            return []
        try:
            rows = store.bucket(fieldname, value)
        except TypeError:  # unhashable probe: no bucket can answer it
            return self.of_type(fact_type)
        return store.live_handles(rows)

    def __iter__(self) -> Iterator[FactHandle]:
        for store in list(self._stores.values()):
            yield from store.live_handles(range(len(store)))

    def __len__(self) -> int:
        return self._live_count

    def types(self) -> list[str]:
        """Type names with at least one live fact."""
        return sorted(
            t for t, store in self._stores.items()
            if any(h is None or h.live for h in store.handles))

    # -- change tracking ---------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter; bumps on every assert/retract/clear."""
        return self._version

    def type_version(self, fact_type: str) -> int:
        """Version at which ``fact_type`` was last mutated (0 = never)."""
        return self._type_versions.get(fact_type, 0)

    def extend(self, facts: Iterable[Fact]) -> Sequence[FactHandle]:
        return self.assert_facts(facts)


class _Missing:
    def __eq__(self, other: object) -> bool:
        return False

    def __hash__(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<missing>"


_MISSING = _Missing()
