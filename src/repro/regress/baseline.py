"""Baseline registry: turning PerfDMF into a performance *version* store.

Perun-style version management needs one fact PerfDMF does not record:
which stored trial is the *expected* performance of an
(application, experiment) pair.  This module adds that fact as a side
table in the same SQLite file, with full history — every promotion is a
new row, so "when did the baseline move, and why" is always answerable.

The regress tables are a :class:`~repro.perfdmf.sidetables.SideTables`
(schema version in ``regress_meta``), migrated in place on open, so a
repository created by an older build upgrades transparently the first
time a sentinel touches it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..perfdmf import PerfDMF, ProfileError, Trial
from ..perfdmf.database import transaction
from ..perfdmf.sidetables import SideTables


def _add_reason(conn) -> None:
    """v2 records *why* a baseline was promoted (manual tag, CI
    auto-promotion on an accepted improvement, ...)."""
    conn.execute("ALTER TABLE baseline ADD COLUMN reason TEXT NOT NULL DEFAULT ''")


REGRESS_TABLES = SideTables("regress", version=2, schema="""
CREATE TABLE IF NOT EXISTS baseline (
    id       INTEGER PRIMARY KEY,
    exp_id   INTEGER NOT NULL REFERENCES experiment(id) ON DELETE CASCADE,
    trial_id INTEGER NOT NULL REFERENCES trial(id)      ON DELETE CASCADE,
    active   INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX IF NOT EXISTS idx_baseline_exp ON baseline(exp_id);
""", migrations={1: _add_reason})

#: Current version of the regress-side schema.
REGRESS_SCHEMA_VERSION = REGRESS_TABLES.version
ensure_regress_schema = REGRESS_TABLES.ensure


@dataclass(frozen=True)
class BaselineRecord:
    """One row of baseline history (most recent row is the active one)."""

    application: str
    experiment: str
    trial: str
    reason: str
    active: bool


class BaselineRegistry:
    """Tag stored trials as baselines, with promotion history.

    Parameters
    ----------
    db:
        An open :class:`~repro.perfdmf.PerfDMF` repository.  The registry
        keeps its tables in the same database file, so baselines share the
        repository's lifetime and cascade away with their trials.
    """

    def __init__(self, db: PerfDMF) -> None:
        self.db = db
        self.schema_version = ensure_regress_schema(db)

    def _exp_id(self, application: str, experiment: str) -> int:
        row = self.db.connection.execute(
            """SELECT e.id FROM experiment e JOIN application a
               ON e.app_id = a.id WHERE a.name = ? AND e.name = ?""",
            (application, experiment),
        ).fetchone()
        if row is None:
            raise ProfileError(
                f"no experiment {application!r}/{experiment!r} in repository"
            )
        return row[0]

    def set_baseline(
        self, application: str, experiment: str, trial: str, *, reason: str = ""
    ) -> None:
        """Promote ``trial`` to the baseline of (application, experiment).

        The previous baseline (if any) is demoted but kept as history.
        """
        exp_id = self._exp_id(application, experiment)
        trial_id = self.db.trial_id(application, experiment, trial)

        def promote(conn) -> None:
            conn.execute(
                "UPDATE baseline SET active = 0 WHERE exp_id = ?", (exp_id,)
            )
            conn.execute(
                "INSERT INTO baseline (exp_id, trial_id, active, reason) "
                "VALUES (?, ?, 1, ?)",
                (exp_id, trial_id, reason),
            )

        transaction(self.db, promote)

    def baseline_name(self, application: str, experiment: str) -> str | None:
        """Name of the active baseline trial, or None when unset."""
        exp_id = self._exp_id(application, experiment)
        row = self.db.connection.execute(
            """SELECT t.name FROM baseline b JOIN trial t ON b.trial_id = t.id
               WHERE b.exp_id = ? AND b.active = 1
               ORDER BY b.id DESC LIMIT 1""",
            (exp_id,),
        ).fetchone()
        return row[0] if row else None

    def load_baseline(self, application: str, experiment: str) -> Trial:
        """Load the active baseline trial (raises when none is set)."""
        name = self.baseline_name(application, experiment)
        if name is None:
            raise ProfileError(
                f"no baseline set for {application!r}/{experiment!r}; "
                "tag one with BaselineRegistry.set_baseline / "
                "`repro-perf regress baseline set`"
            )
        return self.db.load_trial(application, experiment, name)

    def history(self, application: str, experiment: str) -> list[BaselineRecord]:
        """All promotions for one experiment, oldest first."""
        exp_id = self._exp_id(application, experiment)
        rows = self.db.connection.execute(
            """SELECT t.name, b.reason, b.active
               FROM baseline b JOIN trial t ON b.trial_id = t.id
               WHERE b.exp_id = ? ORDER BY b.id""",
            (exp_id,),
        ).fetchall()
        return [
            BaselineRecord(application, experiment, name, reason, bool(active))
            for name, reason, active in rows
        ]

    def list_baselines(self) -> list[BaselineRecord]:
        """Every active baseline in the repository."""
        rows = self.db.connection.execute(
            """SELECT a.name, e.name, t.name, b.reason
               FROM baseline b
               JOIN trial t ON b.trial_id = t.id
               JOIN experiment e ON b.exp_id = e.id
               JOIN application a ON e.app_id = a.id
               WHERE b.active = 1 ORDER BY a.name, e.name""",
        ).fetchall()
        return [
            BaselineRecord(app, exp, trial, reason, True)
            for app, exp, trial, reason in rows
        ]
