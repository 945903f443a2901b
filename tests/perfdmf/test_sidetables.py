"""SideTables: versioned companion tables and their write transactions."""

import sqlite3
import threading
import time

import pytest

from repro.perfdmf import PerfDMF, ProfileError
from repro.perfdmf.database import transaction
from repro.perfdmf.sidetables import SideTables


def _add_note(conn):
    conn.execute("ALTER TABLE toy ADD COLUMN note TEXT NOT NULL DEFAULT ''")


def _add_index(conn):
    conn.execute("CREATE INDEX idx_toy_note ON toy(note)")


V1 = "CREATE TABLE IF NOT EXISTS toy (id INTEGER PRIMARY KEY, x INTEGER)"
TOY = SideTables("toy", version=3, schema=V1,
                 migrations={1: _add_note, 2: _add_index})


def stored_version(db, name="toy"):
    return db.connection.execute(f"SELECT version FROM {name}_meta").fetchone()[0]


def columns(db, table="toy"):
    return [r[1] for r in db.connection.execute(f"PRAGMA table_info({table})")]


class TestEnsure:
    def test_fresh_file_takes_the_migration_path(self):
        with PerfDMF() as db:
            assert TOY.ensure(db) == 3
            assert stored_version(db) == 3
            assert columns(db) == ["id", "x", "note"]
            assert db.connection.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'idx_toy_note'"
            ).fetchone()

    def test_old_file_migrates_and_keeps_rows(self, tmp_path):
        path = tmp_path / "old.db"
        with PerfDMF(path) as db:
            SideTables("toy", version=1, schema=V1).ensure(db)
            db.connection.execute("INSERT INTO toy (x) VALUES (7)")
        with PerfDMF(path) as db:
            TOY.ensure(db)
            assert stored_version(db) == 3
            assert db.connection.execute(
                "SELECT x, note FROM toy").fetchall() == [(7, "")]

    def test_reopen_is_idempotent(self):
        with PerfDMF() as db:
            TOY.ensure(db)
            db.connection.execute("INSERT INTO toy (x) VALUES (1)")
            assert TOY.ensure(db) == 3
            assert db.connection.execute(
                "SELECT COUNT(*) FROM toy").fetchone()[0] == 1

    def test_current_file_needs_no_write_lock(self, tmp_path):
        # Ensuring current tables is a read: it succeeds on a read-only
        # view and while another connection holds the write lock.
        path = tmp_path / "perf.db"
        with PerfDMF(path) as db:
            TOY.ensure(db)
            holder = sqlite3.connect(path, isolation_level=None)
            holder.execute("BEGIN IMMEDIATE")
            try:
                with PerfDMF(path, busy_timeout_ms=50) as other:
                    assert TOY.ensure(other) == 3
                with db.read_view() as view:
                    assert TOY.ensure(view) == 3
            finally:
                holder.execute("ROLLBACK")
                holder.close()

    def test_read_only_open_of_unmigrated_file_refused(self, tmp_path):
        path = tmp_path / "perf.db"
        with PerfDMF(path) as db:
            SideTables("toy", version=1, schema=V1).ensure(db)
            with db.read_view() as view:
                with pytest.raises(ProfileError, match="read-write once"):
                    TOY.ensure(view)

    @pytest.mark.parametrize("read_only", [False, True])
    def test_newer_version_refused(self, tmp_path, read_only):
        path = tmp_path / "perf.db"
        with PerfDMF(path) as db:
            TOY.ensure(db)
            db.connection.execute("UPDATE toy_meta SET version = 4")
        with PerfDMF(path, read_only=read_only) as db:
            with pytest.raises(ProfileError, match="newer than this build"):
                TOY.ensure(db)

    def test_failed_migration_leaves_the_old_version(self, tmp_path):
        # Creation, every step and the version bump are one transaction:
        # a failure after a step ran keeps neither the step nor the bump.
        def broken(conn):
            conn.execute("CREATE INDEX idx_toy_note ON toy(note)")
            raise RuntimeError("killed mid-migration")

        path = tmp_path / "perf.db"
        with PerfDMF(path) as db:
            SideTables("toy", version=1, schema=V1).ensure(db)
            with pytest.raises(RuntimeError, match="mid-migration"):
                SideTables("toy", version=3, schema=V1,
                           migrations={1: _add_note, 2: broken}).ensure(db)
            assert stored_version(db) == 1
            assert columns(db) == ["id", "x"]
            assert TOY.ensure(db) == 3
            assert columns(db) == ["id", "x", "note"]

    def test_meta_without_a_row_is_completed(self):
        # What an older build's statement-by-statement creation left
        # behind when it died between creating the tables and the row.
        with PerfDMF() as db:
            db.connection.executescript(
                "CREATE TABLE toy_meta (version INTEGER NOT NULL);" + V1)
            assert TOY.ensure(db) == 3
            assert stored_version(db) == 3


class TestTransaction:
    def test_commits_and_returns(self):
        with PerfDMF() as db:
            TOY.ensure(db)
            rowid = transaction(db, lambda conn: conn.execute(
                "INSERT INTO toy (x) VALUES (1)").lastrowid)
            assert db.connection.execute(
                "SELECT x FROM toy WHERE id = ?", (rowid,)).fetchone() == (1,)

    def test_any_exception_rolls_back(self):
        def half(conn):
            conn.execute("INSERT INTO toy (x) VALUES (1)")
            raise KeyboardInterrupt

        with PerfDMF() as db:
            TOY.ensure(db)
            with pytest.raises(KeyboardInterrupt):
                transaction(db, half)
            assert not db.connection.in_transaction
            assert db.connection.execute(
                "SELECT COUNT(*) FROM toy").fetchone()[0] == 0

    def test_locked_database_retries_the_whole_transaction(self):
        # Shared-cache in-memory databases raise table-lock errors at
        # once instead of waiting; the transaction reruns from the start.
        with PerfDMF() as db:
            TOY.ensure(db)
            holding = threading.Event()

            def hold():
                conn = db.connection
                conn.execute("BEGIN IMMEDIATE")
                conn.execute("INSERT INTO toy (x) VALUES (0)")
                holding.set()
                time.sleep(0.1)
                conn.execute("COMMIT")

            holder = threading.Thread(target=hold)
            holder.start()
            holding.wait()

            with pytest.raises(sqlite3.OperationalError, match="locked"):
                db.connection.execute("BEGIN IMMEDIATE")
            transaction(db, lambda conn: conn.execute(
                "INSERT INTO toy (x) VALUES (1)"))
            holder.join()
            assert sorted(r[0] for r in db.connection.execute(
                "SELECT x FROM toy")) == [0, 1]

    def test_other_errors_are_not_retried(self):
        calls = []

        def bad(conn):
            calls.append(1)
            conn.execute("INSERT INTO missing VALUES (1)")

        with PerfDMF() as db:
            with pytest.raises(sqlite3.OperationalError, match="no such table"):
                transaction(db, bad)
        assert calls == [1]
