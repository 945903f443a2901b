"""LineageStore: anchoring performance history to code versions.

Perun-style performance versioning needs one spine PerfDMF lacks: a map
from *code version* (a commit id, a build tag — any stable string) to
the trials and baselines measured at that version, plus the parent
links that make "since when?" answerable.  This module adds that spine
as side tables in the same SQLite file as the trials — one artifact to
ship, lineage cascades away with its repository — declared as a
:class:`~repro.perfdmf.sidetables.SideTables` (schema version in
``lineage_meta``), like ``experiments.state``.

It is also the one baseline store.  Promoting a trial to the baseline of
an (application, experiment) pair records a version
``baseline/<application>/<experiment>/<n>`` (names percent-encoded, so
``/`` and ``:`` in them stay unambiguous) whose parent is the pair's
previous promotion, with the trial attached under the ``baseline`` role
and the reason as an annotation.  The active baseline is the baseline
trial of the newest version in that chain: once that trial is replaced
or deleted the pair has none, and never falls back to an older one.

History may be a straight line (CI building every commit of one branch)
or a DAG (merge commits, multiple parents).  Both are read by one
breadth-first walk over parent links, which on a straight line visits
the first-parent chain in order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence
from urllib.parse import quote

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

#: Every promotion version id starts with this.
BASELINE_PREFIX = "baseline/"


def _baseline_prefix(application: str, experiment: str) -> str:
    return (f"{BASELINE_PREFIX}{quote(application, safe='')}/"
            f"{quote(experiment, safe='')}/")


def _prefix_range(prefix: str) -> tuple[str, str]:
    """Bounds of ``version_id >= ? AND version_id < ?`` for the ids under
    ``prefix`` (``/``-terminated; ``0`` sorts next), served by the index."""
    return prefix, prefix[:-1] + "0"


def _versions_under(conn, prefix: str) -> list[str]:
    """Version ids under ``prefix``, oldest first."""
    return [r[0] for r in conn.execute(
        "SELECT version_id FROM lineage_version "
        "WHERE version_id >= ? AND version_id < ? ORDER BY id",
        _prefix_range(prefix)).fetchall()]


def _check_unreserved(version_id: str) -> None:
    if version_id.startswith(BASELINE_PREFIX):
        raise ProfileError(
            f"lineage: version {version_id!r} is in the {BASELINE_PREFIX!r} "
            "namespace, which only baseline promotions write")


def _promote(conn, application: str, experiment: str,
             trial_id: int | None, reason: str) -> str:
    """Record the pair's next promotion version, child of its previous
    one, with ``trial_id`` (if any) attached as the baseline."""
    prefix = _baseline_prefix(application, experiment)
    chain = _versions_under(conn, prefix)
    version_id = f"{prefix}{len(chain) + 1}"
    vk = version_key()
    row = LineageStore._record(conn, version_id, tuple(chain[-1:]),
                               {"reason": reason}, vk.code, vk.rulebase,
                               time.time())
    if trial_id is not None:
        conn.execute("INSERT INTO lineage_trial (version_row, trial_id, "
                     "role) VALUES (?, ?, 'baseline')", (row, trial_id))
    return version_id


def _table_exists(conn, name: str) -> bool:
    return conn.execute("SELECT 1 FROM sqlite_master WHERE type = 'table' "
                        "AND name = ?", (name,)).fetchone() is not None


def _fold_baselines(conn) -> None:
    """v2 keeps baselines as versions: fold the regress registry's
    ``baseline`` rows, in row order, into one promotion chain per pair,
    then drop its ``baseline`` and ``regress_meta`` tables."""
    if _table_exists(conn, "regress_meta"):
        row = conn.execute("SELECT version FROM regress_meta").fetchone()
        if row is not None and row[0] > 2:
            raise ProfileError(
                f"regress schema version {row[0]} is newer than this "
                "build supports (2)")
    if _table_exists(conn, "baseline"):
        columns = {r[1] for r in conn.execute("PRAGMA table_info(baseline)")}
        reason = "b.reason" if "reason" in columns else "''"  # v1: none
        last_active: dict[tuple[str, str], bool] = {}
        for app, exp, trial_id, why, active in conn.execute(
                f"""SELECT a.name, e.name, b.trial_id, {reason}, b.active
                    FROM baseline b JOIN experiment e ON b.exp_id = e.id
                    JOIN application a ON e.app_id = a.id
                    ORDER BY b.id""").fetchall():
            _promote(conn, app, exp, trial_id, why)
            last_active[app, exp] = bool(active)
        # a newest row left inactive means its active successor's trial
        # was deleted: end the chain on a version without a baseline
        for (app, exp), active in last_active.items():
            if not active:
                _promote(conn, app, exp, None,
                         "baseline trial deleted before the fold")
    conn.execute("DROP TABLE IF EXISTS baseline")
    conn.execute("DROP TABLE IF EXISTS regress_meta")


LINEAGE_TABLES = SideTables("lineage", version=2, schema="""
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
""", migrations={1: _fold_baselines})

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
        _check_unreserved(version_id)
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
                created_at: float) -> int:
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
            if conn.execute(
                """WITH RECURSIVE below(id) AS (
                       SELECT ? UNION
                       SELECT p.child_id FROM lineage_parent p
                       JOIN below ON p.parent_id = below.id)
                   SELECT 1 FROM below WHERE id = ?""",
                (child_row, prow[0]),
            ).fetchone() is not None:
                raise ProfileError(
                    f"lineage: parent {parent!r} of {version_id!r} would "
                    "make a cycle: it is the version itself or one of its "
                    "descendants"
                )
            conn.execute(
                "INSERT OR IGNORE INTO lineage_parent "
                "(child_id, parent_id, ordinal) VALUES (?, ?, ?)",
                (child_row, prow[0], ordinal),
            )
        return child_row

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
        _check_unreserved(version_id)
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

    # -- baselines ---------------------------------------------------------
    def promote(self, application: str, experiment: str, trial: str,
                *, reason: str = "") -> VersionRecord:
        """Make ``trial`` the baseline of (application, experiment): one
        transaction records the pair's next promotion version."""
        trial_id = self.db.trial_id(application, experiment, trial)
        return self.get(transaction(self.db, lambda conn: _promote(
            conn, application, experiment, trial_id, reason)))

    def _chain(self, application: str, experiment: str) -> list[str]:
        if experiment not in self.db.experiments(application):
            raise ProfileError(f"no experiment {application!r}/"
                               f"{experiment!r} in repository")
        return _versions_under(self.db.connection,
                               _baseline_prefix(application, experiment))

    def baseline_chain(self, application: str,
                       experiment: str) -> list[VersionRecord]:
        """The pair's promotion versions, oldest first."""
        return [self.get(v) for v in self._chain(application, experiment)]

    def baseline_name(self, application: str,
                      experiment: str) -> str | None:
        """The active baseline trial: the baseline of the newest
        promotion, or None when unset or since replaced/deleted."""
        chain = self._chain(application, experiment)
        refs = self.get(chain[-1]).baselines if chain else ()
        return refs[0].trial if refs else None

    def baselines(self) -> list[VersionRecord]:
        """The newest promotion of every pair that has an active
        baseline, ordered by (application, experiment)."""
        newest: dict[str, str] = {}
        for vid in _versions_under(self.db.connection, BASELINE_PREFIX):
            newest[vid.rsplit("/", 1)[0]] = vid
        records = [r for r in map(self.get, newest.values()) if r.baselines]
        return sorted(records, key=lambda r: (r.baselines[0].application,
                                              r.baselines[0].experiment))

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
        """Versions with no recorded children (the heads of history),
        except baseline promotion chains, which are not code history."""
        return [r[0] for r in self.db.connection.execute(
            "SELECT version_id FROM lineage_version WHERE id NOT IN "
            "(SELECT parent_id FROM lineage_parent) AND NOT "
            "(version_id >= ? AND version_id < ?) ORDER BY id",
            _prefix_range(BASELINE_PREFIX)).fetchall()]

    # -- walks -------------------------------------------------------------
    def history(self, version_id: str | None = None,
                *, limit: int | None = None) -> list[VersionRecord]:
        """Ancestry of ``version_id`` (default: the newest tip), newest
        first — ``git log`` for performance.

        A breadth-first walk over all parents that lists each version
        once; on a linear chain that is the first-parent order.
        """
        if limit is not None and limit < 1:
            raise ProfileError(
                f"lineage: history limit must be at least 1, got {limit}")
        if version_id is None:
            tips = self.tips()
            if not tips:
                return []
            version_id = tips[-1]
        out: list[VersionRecord] = []
        seen: set[str] = set()
        frontier = [version_id]
        while frontier:
            batch, frontier = frontier, []
            for vid in batch:
                if vid in seen:
                    continue
                seen.add(vid)
                record = self.get(vid)
                out.append(record)
                if limit is not None and len(out) >= limit:
                    return out
                frontier.extend(record.parents)
        return out

    def path(self, ancestor: str, descendant: str) -> list[str]:
        """The version chain from ``ancestor`` to ``descendant``
        inclusive, oldest first — what scanners and bisect walk.

        A breadth-first search over parent links, first parents first,
        so the shortest ancestor path wins; on a linear chain it is the
        first-parent chain.
        """
        self._row_id(ancestor)
        # remember the child that discovered each version, so the path
        # reconstructs backwards
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