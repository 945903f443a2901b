"""The analyzer's version identity: one key for caches and lineage.

Two things make an analysis answer what it is: the *code* that computed
it (:data:`repro.__version__`) and the *rulebase* it reasoned with (a
content fingerprint of :mod:`repro.knowledge`'s sources).  The result
cache has always folded both into its content addresses; the lineage
store anchors performance history to the same pair.  This module is the
single source of that pair — :func:`version_key` — so cache keys and
lineage versions can never drift apart, and of the one JSON encoding
content addresses hash, :func:`canonical_json`.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Any, MutableMapping

from . import __version__ as CODE_VERSION

__all__ = ["CODE_VERSION", "VersionKey", "canonical_json",
           "rulebase_fingerprint", "version_key"]

#: ``json.dumps`` with these options would build a fresh encoder per
#: call, a sizeable share of a cache hit's cost.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=str)


def canonical_json(value: Any) -> str:
    """``value`` as compact JSON with sorted keys (non-JSON values as
    ``str``): the text cache keys, case keys and seeds hash."""
    return _ENCODER.encode(value)

_fingerprint_lock = threading.Lock()
_fingerprint: str | None = None


def rulebase_fingerprint() -> str:
    """Digest of the shipped knowledge layer's sources (.py and .prl).

    Any edit to the rulebase — new rule, changed threshold, different
    fact generator — changes this fingerprint and therefore every cache
    key and lineage version derived from it.  Computed once per process.
    """
    global _fingerprint
    with _fingerprint_lock:
        if _fingerprint is None:
            from pathlib import Path

            import repro.knowledge as knowledge

            root = Path(knowledge.__file__).parent
            h = hashlib.sha256()
            for path in sorted(root.glob("*.py")) + sorted(root.glob("*.prl")):
                h.update(path.name.encode())
                h.update(path.read_bytes())
            _fingerprint = h.hexdigest()[:16]
        return _fingerprint


@dataclass(frozen=True)
class VersionKey:
    """The (code, rulebase) identity of one analyzer build."""

    code: str
    rulebase: str

    @property
    def key(self) -> str:
        """One opaque string for key material (``code+rulebase``)."""
        return f"{self.code}+{self.rulebase}"

    @classmethod
    def parse(cls, key: str) -> "VersionKey":
        code, sep, rulebase = key.partition("+")
        if not sep:
            raise ValueError(f"not a version key: {key!r}")
        return cls(code, rulebase)

    def stamp(self, metadata: MutableMapping) -> MutableMapping:
        """Record this identity into trial metadata (idempotent; an
        explicit earlier stamp wins so re-stored trials keep their
        provenance)."""
        metadata.setdefault("code_version", self.code)
        metadata.setdefault("rulebase_version", self.rulebase)
        return metadata

    def to_dict(self) -> dict[str, str]:
        return {"code": self.code, "rulebase": self.rulebase}


def version_key(
    code_version: str | None = None,
    rulebase_version: str | None = None,
) -> VersionKey:
    """The current build's :class:`VersionKey`, with optional overrides
    (used by the cache to pin keys and by tests to simulate bumps)."""
    return VersionKey(
        code=code_version or CODE_VERSION,
        rulebase=rulebase_version or rulebase_fingerprint(),
    )
