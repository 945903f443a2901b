"""LineageStore: anchoring performance history to code versions.

Perun-style performance versioning needs one spine PerfDMF lacks: a map
from *code version* (a commit id, a build tag — any stable string) to
the trials and baselines measured at that version, plus the parent
links that make "since when?" answerable.  This module adds that spine
as side tables in the same SQLite file as the trials — one artifact to
ship, lineage cascades away with its repository — declared as a
:class:`~repro.perfdmf.sidetables.SideTables` (schema version in
``lineage_meta``), like ``regress.baseline`` and ``experiments.state``.

History may be a straight line (CI building every commit of one branch)
or a DAG (merge commits, multiple parents).  Reads take a **linear fast
path** — one recursive-CTE first-parent walk in SQL — whenever no
version has more than one parent, and fall back to a DAG-aware breadth
first parent walk in Python otherwise.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..perfdmf import PerfDMF, ProfileError
from ..perfdmf.database import transaction
from ..perfdmf.sidetables import SideTables
from ..version import version_key

__all__ = [
    "LINEAGE_SCHEMA_VERSION",
    "LineageStore",
    "TrialRef",
    "VersionRecord",
    "ensure_lineage_schema",
]

LINEAGE_TABLES = SideTables("lineage", version=1, schema="""
CREATE TABLE IF NOT EXISTS lineage_version (
    id               INTEGER PRIMARY KEY,
    version_id       TEXT NOT NULL UNIQUE,
    code_version     TEXT NOT NULL DEFAULT '',
    rulebase_version TEXT NOT NULL DEFAULT '',
    created_at       REAL NOT NULL,
    annotations      TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS lineage_parent (
    child_id  INTEGER NOT NULL
              REFERENCES lineage_version(id) ON DELETE CASCADE,
    parent_id INTEGER NOT NULL
              REFERENCES lineage_version(id) ON DELETE CASCADE,
    ordinal   INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (child_id, parent_id)
);
CREATE INDEX IF NOT EXISTS idx_lineage_parent_child
    ON lineage_parent(child_id, ordinal);
CREATE TABLE IF NOT EXISTS lineage_trial (
    version_row INTEGER NOT NULL
                REFERENCES lineage_version(id) ON DELETE CASCADE,
    trial_id    INTEGER NOT NULL
                REFERENCES trial(id) ON DELETE CASCADE,
    role        TEXT NOT NULL DEFAULT 'trial',
    PRIMARY KEY (version_row, trial_id, role)
);
CREATE INDEX IF NOT EXISTS idx_lineage_trial_version
    ON lineage_trial(version_row);
""")

#: Current version of the lineage-side schema.
LINEAGE_SCHEMA_VERSION = LINEAGE_TABLES.version
ensure_lineage_schema = LINEAGE_TABLES.ensure


@dataclass(frozen=True)
class TrialRef:
    """One stored trial attached to a version."""

    application: str
    experiment: str
    trial: str
    role: str = "trial"  # 'trial' | 'baseline'

    def to_dict(self) -> dict[str, str]:
        return {"application": self.application,
                "experiment": self.experiment,
                "trial": self.trial, "role": self.role}


@dataclass(frozen=True)
class VersionRecord:
    """One code version and everything lineage knows about it."""

    version_id: str
    parents: tuple[str, ...]
    code_version: str
    rulebase_version: str
    created_at: float
    annotations: dict[str, Any] = field(default_factory=dict)
    trials: tuple[TrialRef, ...] = ()

    @property
    def baselines(self) -> tuple[TrialRef, ...]:
        return tuple(t for t in self.trials if t.role == "baseline")

    @property
    def short(self) -> str:
        return self.version_id[:12]

    def to_dict(self) -> dict[str, Any]:
        return {
            "version_id": self.version_id,
            "short": self.short,
            "parents": list(self.parents),
            "code_version": self.code_version,
            "rulebase_version": self.rulebase_version,
            "created_at": self.created_at,
            "annotations": dict(self.annotations),
            "trials": [t.to_dict() for t in self.trials],
        }


class LineageStore:
    """Version → {parents, trials, baselines, annotations} over PerfDMF.

    Parameters
    ----------
    db:
        An open :class:`~repro.perfdmf.PerfDMF` repository.  Lineage
        lives in the same file as the trials it anchors.
    """

    def __init__(self, db: PerfDMF) -> None:
        self.db = db
        self.schema_version = ensure_lineage_schema(db)

    # -- recording ---------------------------------------------------------
    def record(
        self,
        version_id: str,
        *,
        parents: Sequence[str] = (),
        annotations: dict[str, Any] | None = None,
        code_version: str | None = None,
        rulebase_version: str | None = None,
        timestamp: float | None = None,
    ) -> VersionRecord:
        """Record one code version (idempotent: re-recording merges
        annotations and parent links instead of failing).

        Parents must already be recorded — lineage grows tip-forward,
        like the VCS it mirrors.
        """
        if not version_id:
            raise ProfileError("lineage: version_id must be non-empty")
        vk = version_key(code_version, rulebase_version)
        created_at = time.time() if timestamp is None else float(timestamp)
        transaction(self.db, lambda conn: self._record(
            conn, version_id, tuple(parents), annotations or {},
            vk.code, vk.rulebase, created_at,
        ))
        return self.get(version_id)

    @staticmethod
    def _record(conn, version_id: str, parents: tuple[str, ...],
                annotations: dict[str, Any], code: str, rulebase: str,
                created_at: float) -> None:
        row = conn.execute(
            "SELECT id, annotations FROM lineage_version "
            "WHERE version_id = ?", (version_id,),
        ).fetchone()
        if row is None:
            cur = conn.execute(
                "INSERT INTO lineage_version (version_id, code_version, "
                "rulebase_version, created_at, annotations) "
                "VALUES (?, ?, ?, ?, ?)",
                (version_id, code, rulebase, created_at,
                 json.dumps(annotations, sort_keys=True)),
            )
            child_row = cur.lastrowid
        else:
            child_row = row[0]
            if annotations:
                merged = {**json.loads(row[1]), **annotations}
                conn.execute(
                    "UPDATE lineage_version SET annotations = ? "
                    "WHERE id = ?",
                    (json.dumps(merged, sort_keys=True), child_row),
                )
        for ordinal, parent in enumerate(parents):
            prow = conn.execute(
                "SELECT id FROM lineage_version WHERE version_id = ?",
                (parent,),
            ).fetchone()
            if prow is None:
                raise ProfileError(
                    f"lineage: parent {parent!r} of {version_id!r} is "
                    "not recorded; record parents first"
                )
            conn.execute(
                "INSERT OR IGNORE INTO lineage_parent "
                "(child_id, parent_id, ordinal) VALUES (?, ?, ?)",
                (child_row, prow[0], ordinal),
            )

    def attach_trial(
        self, version_id: str, application: str, experiment: str,
        trial: str, *, role: str = "trial",
    ) -> None:
        """Tie a stored trial to a version (role ``trial`` or
        ``baseline``)."""
        self.attach_trials(
            version_id, [TrialRef(application, experiment, trial, role)])

    def attach_trials(self, version_id: str,
                      refs: Iterable[TrialRef]) -> None:
        """Tie several stored trials to a version in one transaction:
        a crash attaches all of them or none."""
        refs = list(refs)
        for ref in refs:
            if ref.role not in ("trial", "baseline"):
                raise ProfileError(f"lineage: unknown trial role {ref.role!r}")
        version_row = self._row_id(version_id)
        rows = [(version_row, self.db.trial_id(
            ref.application, ref.experiment, ref.trial), ref.role)
            for ref in refs]
        transaction(self.db, lambda conn: conn.executemany(
            "INSERT OR IGNORE INTO lineage_trial "
            "(version_row, trial_id, role) VALUES (?, ?, ?)", rows))

    def annotate(self, version_id: str, **annotations: Any) -> None:
        """Merge annotations into a recorded version."""
        row_id = self._row_id(version_id)

        def merge(conn) -> None:
            current = json.loads(conn.execute(
                "SELECT annotations FROM lineage_version WHERE id = ?",
                (row_id,),
            ).fetchone()[0])
            current.update(annotations)
            conn.execute(
                "UPDATE lineage_version SET annotations = ? WHERE id = ?",
                (json.dumps(current, sort_keys=True), row_id),
            )

        transaction(self.db, merge)

    # -- lookups -----------------------------------------------------------
    def _row_id(self, version_id: str) -> int:
        row = self.db.connection.execute(
            "SELECT id FROM lineage_version WHERE version_id = ?",
            (version_id,),
        ).fetchone()
        if row is None:
            raise ProfileError(f"lineage: unknown version {version_id!r}")
        return row[0]

    def exists(self, version_id: str) -> bool:
        return self.db.connection.execute(
            "SELECT 1 FROM lineage_version WHERE version_id = ?",
            (version_id,),
        ).fetchone() is not None

    def __len__(self) -> int:
        return self.db.connection.execute(
            "SELECT COUNT(*) FROM lineage_version"
        ).fetchone()[0]

    def get(self, version_id: str) -> VersionRecord:
        """Full record for one version."""
        conn = self.db.connection
        row = conn.execute(
            "SELECT id, code_version, rulebase_version, created_at, "
            "annotations FROM lineage_version WHERE version_id = ?",
            (version_id,),
        ).fetchone()
        if row is None:
            raise ProfileError(f"lineage: unknown version {version_id!r}")
        row_id, code, rulebase, created_at, annotations = row
        parents = tuple(r[0] for r in conn.execute(
            "SELECT v.version_id FROM lineage_parent p "
            "JOIN lineage_version v ON p.parent_id = v.id "
            "WHERE p.child_id = ? ORDER BY p.ordinal", (row_id,),
        ).fetchall())
        trials = tuple(
            TrialRef(app, exp, trial, role)
            for app, exp, trial, role in conn.execute(
                """SELECT a.name, e.name, t.name, lt.role
                   FROM lineage_trial lt
                   JOIN trial t ON lt.trial_id = t.id
                   JOIN experiment e ON t.exp_id = e.id
                   JOIN application a ON e.app_id = a.id
                   WHERE lt.version_row = ? ORDER BY lt.rowid""",
                (row_id,),
            ).fetchall()
        )
        return VersionRecord(
            version_id=version_id, parents=parents, code_version=code,
            rulebase_version=rulebase, created_at=created_at,
            annotations=json.loads(annotations), trials=trials,
        )

    def versions(self) -> list[str]:
        """Every recorded version id, oldest first."""
        return [r[0] for r in self.db.connection.execute(
            "SELECT version_id FROM lineage_version ORDER BY id"
        ).fetchall()]

    def tips(self) -> list[str]:
        """Versions with no recorded children (the heads of history)."""
        return [r[0] for r in self.db.connection.execute(
            "SELECT version_id FROM lineage_version WHERE id NOT IN "
            "(SELECT parent_id FROM lineage_parent) ORDER BY id"
        ).fetchall()]

    @property
    def is_linear(self) -> bool:
        """True when no version has more than one parent — the common
        single-branch CI shape, unlocking the SQL fast path."""
        return self.db.connection.execute(
            "SELECT 1 FROM lineage_parent GROUP BY child_id "
            "HAVING COUNT(*) > 1 LIMIT 1"
        ).fetchone() is None

    # -- walks -------------------------------------------------------------
    def history(self, version_id: str | None = None,
                *, limit: int | None = None) -> list[VersionRecord]:
        """Ancestry of ``version_id`` (default: the newest tip), newest
        first — ``git log`` for performance.

        Linear histories resolve in one recursive CTE; DAGs fall back to
        a breadth-first walk over all parents with deduplication.
        """
        if version_id is None:
            tips = self.tips()
            if not tips:
                return []
            version_id = tips[-1]
        if self.is_linear:
            ids = self._linear_ancestry(version_id, limit)
        else:
            ids = self._dag_ancestry(version_id, limit)
        return [self.get(v) for v in ids]

    def _linear_ancestry(self, version_id: str,
                         limit: int | None) -> list[str]:
        rows = self.db.connection.execute(
            """WITH RECURSIVE chain(id, version_id, depth) AS (
                   SELECT id, version_id, 0 FROM lineage_version
                   WHERE version_id = ?
                   UNION ALL
                   SELECT v.id, v.version_id, chain.depth + 1
                   FROM chain
                   JOIN lineage_parent p ON p.child_id = chain.id
                   JOIN lineage_version v ON v.id = p.parent_id
                   WHERE p.ordinal = 0
               )
               SELECT version_id FROM chain ORDER BY depth
               """ + ("LIMIT ?" if limit is not None else ""),
            (version_id, limit) if limit is not None else (version_id,),
        ).fetchall()
        if not rows:
            raise ProfileError(f"lineage: unknown version {version_id!r}")
        return [r[0] for r in rows]

    def _dag_ancestry(self, version_id: str,
                      limit: int | None) -> list[str]:
        self._row_id(version_id)  # raise on unknown
        out: list[str] = []
        seen: set[str] = set()
        frontier = [version_id]
        while frontier:
            batch, frontier = frontier, []
            for vid in batch:
                if vid in seen:
                    continue
                seen.add(vid)
                out.append(vid)
                if limit is not None and len(out) >= limit:
                    return out
                frontier.extend(self.get(vid).parents)
        return out

    def path(self, ancestor: str, descendant: str) -> list[str]:
        """The version chain from ``ancestor`` to ``descendant``
        inclusive, oldest first — what scanners and bisect walk.

        Follows first parents on the linear fast path; in a DAG, finds
        the first-parent-preferring ancestor path via breadth-first
        search (shortest such path wins).
        """
        self._row_id(ancestor)
        ancestry = (self._linear_ancestry(descendant, None)
                    if self.is_linear
                    else self._bfs_path(ancestor, descendant))
        if self.is_linear:
            if ancestor not in ancestry:
                raise ProfileError(
                    f"lineage: {ancestor!r} is not an ancestor of "
                    f"{descendant!r}"
                )
            chain = ancestry[: ancestry.index(ancestor) + 1]
            return list(reversed(chain))
        return ancestry

    def _bfs_path(self, ancestor: str, descendant: str) -> list[str]:
        # Breadth-first over parent links, remembering the child that
        # discovered each version so the path reconstructs backwards.
        via: dict[str, str | None] = {descendant: None}
        frontier = [descendant]
        while frontier and ancestor not in via:
            nxt: list[str] = []
            for vid in frontier:
                for parent in self.get(vid).parents:
                    if parent not in via:
                        via[parent] = vid
                        nxt.append(parent)
            frontier = nxt
        if ancestor not in via:
            raise ProfileError(
                f"lineage: {ancestor!r} is not an ancestor of "
                f"{descendant!r}"
            )
        path = [ancestor]
        cursor = via[ancestor]
        while cursor is not None:
            path.append(cursor)
            cursor = via[cursor]
        return path

    # -- trial access ------------------------------------------------------
    def trials_for(
        self, version_id: str, *, application: str | None = None,
        experiment: str | None = None, role: str | None = None,
    ) -> list[TrialRef]:
        """Trials attached to a version, optionally filtered."""
        return [
            t for t in self.get(version_id).trials
            if (application is None or t.application == application)
            and (experiment is None or t.experiment == experiment)
            and (role is None or t.role == role)
        ]

    def versions_of_trial(self, application: str, experiment: str,
                          trial: str) -> list[str]:
        """Which recorded versions a stored trial is attached to."""
        trial_id = self.db.trial_id(application, experiment, trial)
        return [r[0] for r in self.db.connection.execute(
            "SELECT v.version_id FROM lineage_trial lt "
            "JOIN lineage_version v ON lt.version_row = v.id "
            "WHERE lt.trial_id = ? ORDER BY v.id", (trial_id,),
        ).fetchall()]
