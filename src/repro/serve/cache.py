"""Content-addressed result cache for analysis jobs.

Cache keys are a digest of **everything a job's answer depends on**:

* the job kind and its canonicalized parameters,
* the :meth:`~repro.perfdmf.PerfDMF.content_hash` of every trial the job
  reads (independent of row ids, so a byte-identical re-upload still
  hits while changed data misses by construction),
* the code version (:data:`repro.__version__`) and a fingerprint of the
  shipped rulebase sources — bump either and every cached diagnosis is
  a miss, because the *answer* could legitimately differ.

Because staleness is encoded in the key, correctness never depends on
invalidation (the service stores a result only if the trials it read kept
their dispatch-time id and hash, so the key names what was analysed); the
eviction hooks (:meth:`ResultCache.attach`) exist to drop entries that can
no longer hit — a deleted or re-uploaded trial's old results — so memory
is not wasted on dead keys.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..version import CODE_VERSION, canonical_json, rulebase_fingerprint, version_key

__all__ = ["CacheStats", "ResultCache", "cache_key", "rulebase_fingerprint"]


def cache_key(
    kind: str,
    params: dict[str, Any],
    trial_hashes: Iterable[str] = (),
    *,
    code_version: str | None = None,
    rulebase_version: str | None = None,
) -> str:
    """The content address of one job's result."""
    versions = version_key(code_version, rulebase_version)
    h = hashlib.sha256()
    h.update(kind.encode())
    h.update(b"\x1f")
    h.update(canonical_json(params).encode())
    for trial_hash in trial_hashes:
        h.update(b"\x1f")
        h.update(trial_hash.encode())
    h.update(b"\x1f")
    h.update(versions.code.encode())
    h.update(b"\x1f")
    h.update(versions.rulebase.encode())
    return h.hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    value: Any
    #: (application, experiment, trial) coordinates this result read.
    coords: tuple[tuple[str, str, str], ...] = ()
    hits: int = 0


class ResultCache:
    """Bounded LRU map from content address → job result.

    Thread-safe; values are treated as immutable JSON-able payloads (the
    service stores what handlers return and hands the same object to
    every hit).
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: coord → set of keys whose results read that trial.
        self._by_coord: dict[tuple[str, str, str], set[str]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> tuple[bool, Any]:
        """``(hit, value)`` — and LRU-touch on hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return False, None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.stats.hits += 1
            return True, entry.value

    def put(
        self,
        key: str,
        value: Any,
        *,
        coords: Iterable[tuple[str, str, str]] = (),
    ) -> None:
        with self._lock:
            if key not in self._entries and self.max_entries > 0:
                while len(self._entries) >= self.max_entries:
                    old_key, old = self._entries.popitem(last=False)
                    self._unindex(old_key, old)
                    self.stats.evictions += 1
            entry = _Entry(value, tuple(coords))
            self._entries[key] = entry
            self._entries.move_to_end(key)
            for coord in entry.coords:
                self._by_coord.setdefault(coord, set()).add(key)
            self.stats.puts += 1

    def _unindex(self, key: str, entry: _Entry) -> None:
        for coord in entry.coords:
            keys = self._by_coord.get(coord)
            if keys:
                keys.discard(key)
                if not keys:
                    del self._by_coord[coord]

    def invalidate_trial(
        self, application: str, experiment: str, trial: str
    ) -> int:
        """Drop every entry whose result read this trial; returns count.

        Correctness does not require this (the content hash in the key
        already changed), but the old entries can never hit again —
        reclaim them eagerly."""
        coord = (application, experiment, trial)
        with self._lock:
            keys = self._by_coord.pop(coord, set())
            for key in keys:
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self._unindex(key, entry)
            self.stats.invalidations += len(keys)
            return len(keys)

    def attach(self, db) -> None:
        """Wire this cache to a repository's change notifications: any
        trial save (re-upload) or delete invalidates dependent entries."""

        def _on_change(action: str, application: str, experiment: str,
                       trial: str) -> None:
            self.invalidate_trial(application, experiment, trial)

        db.add_change_listener(_on_change)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_coord.clear()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                **self.stats.to_dict(),
            }
