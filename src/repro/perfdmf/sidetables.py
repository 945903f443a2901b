"""Side tables: a companion subsystem's own tables in a PerfDMF file.

The experiments state and the lineage store (which also holds the
regression sentinel's baselines) each keep tables next to the trials
they index: one artifact to ship, and foreign keys into ``trial``
cascade them away with their trials.  This module is everything they
share.

* **A schema version per subsystem**, in a one-row ``<name>_meta`` table,
  independent of the core schema's ``PRAGMA user_version``.
* **One schema history.**  A :class:`SideTables` declares the version-1
  DDL and a migration per later version.  A new file gets the version-1
  tables and then every migration, the same path an old file takes, so
  no second "current" DDL has to be kept in step with the migrations.
  Creation, every step and the version bump commit in one transaction:
  a kill mid-migration leaves the old version intact.  Once a file is
  current, :meth:`SideTables.ensure` is two reads and takes no write
  lock.  A version newer than this build knows raises, and so does a
  read-only open of a file whose tables still need creating or migrating.
* **Write transactions** (:func:`~repro.perfdmf.database.transaction`,
  the one PerfDMF's own trial writes use): ``BEGIN IMMEDIATE`` …
  ``COMMIT``, rolled back on any exception and retried whole on
  SQLITE_LOCKED/SQLITE_BUSY.  File-backed repositories resolve write
  contention with WAL plus the busy timeout, but shared-cache
  ``:memory:`` databases (what an in-process thread-mode service uses)
  raise table-lock errors at once while another connection writes.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .database import PerfDMF, transaction
from .model import ProfileError

__all__ = ["SideTables"]


@dataclass(frozen=True)
class SideTables:
    """One subsystem's versioned tables.

    Parameters
    ----------
    name:
        Prefix of the version table, ``<name>_meta``.
    version:
        The schema version this build writes.
    schema:
        The version-1 DDL (``;``-separated ``CREATE … IF NOT EXISTS``).
    migrations:
        Version N → callable upgrading the tables from N to N + 1, for
        every N below ``version``.
    """

    name: str
    version: int
    schema: str
    migrations: Mapping[int, Callable[[sqlite3.Connection], None]] = \
        field(default_factory=dict)

    @property
    def meta(self) -> str:
        return f"{self.name}_meta"

    def ensure(self, db: PerfDMF) -> int:
        """Create or migrate the tables in ``db``; returns the version."""
        if self._stored_version(db.connection) != self.version:
            if db.read_only:
                raise ProfileError(
                    f"{db.path} has no current {self.name} tables; open it "
                    "read-write once to create or migrate them")
            transaction(db, self._upgrade)
        return self.version

    def _stored_version(self, conn: sqlite3.Connection) -> int | None:
        if conn.execute("SELECT 1 FROM sqlite_master WHERE type = 'table' "
                        "AND name = ?", (self.meta,)).fetchone() is None:
            return None
        row = conn.execute(f"SELECT version FROM {self.meta}").fetchone()
        if row is not None and row[0] > self.version:
            raise ProfileError(
                f"{self.name} schema version {row[0]} is newer than this "
                f"build supports ({self.version})")
        return None if row is None else row[0]

    def _upgrade(self, conn: sqlite3.Connection) -> None:
        # re-read under the write lock: another opener may have upgraded
        version = self._stored_version(conn)
        if version is None:
            conn.execute(f"CREATE TABLE IF NOT EXISTS {self.meta} "
                         "(version INTEGER NOT NULL)")
            for statement in self.schema.split(";"):
                conn.execute(statement)
            conn.execute(f"INSERT INTO {self.meta} (version) VALUES (1)")
            version = 1
        for step in range(version, self.version):
            self.migrations[step](conn)
        conn.execute(f"UPDATE {self.meta} SET version = ?", (self.version,))
