"""Imported profiles must survive the repository: load → store → load_trial.

The PerfDMF value proposition is that *any* imported format lands in the
same schema and reads back identically — these tests pin that for the
gprof and CSV importers, plus the storage-engine settings (WAL journal,
enforced foreign keys, transactional trial replacement) the regression
sentinel depends on.
"""

import numpy as np
import pytest

from repro.perfdmf import (
    PerfDMF,
    ProfileError,
    TrialBuilder,
    parse_gprof_text,
    read_csv_profile,
    read_gprof_profile,
    write_csv_profile,
)

GPROF_TEXT = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 52.10      1.05      1.05      200     5.25     7.85  matxvec
 21.00      1.47      0.42     1000     0.42     0.42  pc_jacobi
 15.00      1.77      0.30                             main
"""


def assert_trials_equal(a, b):
    assert a.event_names() == b.event_names()
    assert sorted(a.metric_names()) == sorted(b.metric_names())
    assert [str(t) for t in a.threads] == [str(t) for t in b.threads]
    for m in a.metric_names():
        np.testing.assert_allclose(a.exclusive_array(m), b.exclusive_array(m))
        np.testing.assert_allclose(a.inclusive_array(m), b.inclusive_array(m))
    np.testing.assert_allclose(a.calls_array(), b.calls_array())
    np.testing.assert_allclose(a.subroutines_array(), b.subroutines_array())


def make_trial(name="1_2"):
    exc = np.array([[10.0, 20.0], [5.0, 5.0]])
    return (
        TrialBuilder(name, {"threads": 2})
        .with_events(["main", "loop"])
        .with_threads(2)
        .with_metric("TIME", exc, exc * 3, units="usec")
        .with_calls(np.full((2, 2), 3.0), np.full((2, 2), 1.0))
        .build()
    )


class TestImportedProfileRoundtrip:
    def test_gprof_load_store_load(self, tmp_path):
        gmon = tmp_path / "gmon.txt"
        gmon.write_text(GPROF_TEXT)
        trial = read_gprof_profile(gmon, name="jacobi")
        with PerfDMF() as db:
            db.save_trial("Jacobi", "gprof", trial)
            loaded = db.load_trial("Jacobi", "gprof", "jacobi")
        assert_trials_equal(trial, loaded)
        assert loaded.event_names() == ["matxvec", "pc_jacobi", "main"]
        i = loaded.event_index("matxvec")
        assert loaded.exclusive_array("TIME")[i, 0] == pytest.approx(1.05e6)
        assert loaded.calls_array()[i, 0] == 200

    def test_gprof_roundtrip_through_file_db(self, tmp_path):
        trial = parse_gprof_text(GPROF_TEXT.splitlines(), name="jacobi")
        path = tmp_path / "perf.db"
        with PerfDMF(path) as db:
            db.save_trial("Jacobi", "gprof", trial)
        with PerfDMF(path) as db:  # fresh connection, fresh page cache
            assert_trials_equal(trial, db.load_trial("Jacobi", "gprof", "jacobi"))

    def test_csv_load_store_load(self, tmp_path):
        original = make_trial()
        csv_path = write_csv_profile(original, tmp_path / "trial.csv")
        trial = read_csv_profile(csv_path, name="1_2")
        with PerfDMF() as db:
            db.save_trial("App", "csv", trial)
            loaded = db.load_trial("App", "csv", "1_2")
        assert_trials_equal(trial, loaded)
        assert_trials_equal(original, loaded)


class TestStorageEngine:
    def test_file_database_uses_wal(self, tmp_path):
        with PerfDMF(tmp_path / "perf.db") as db:
            mode = db.connection.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            sync = db.connection.execute("PRAGMA synchronous").fetchone()[0]
            assert sync == 1  # NORMAL

    def test_foreign_keys_enforced(self):
        import sqlite3

        with PerfDMF() as db:
            assert db.connection.execute(
                "PRAGMA foreign_keys").fetchone()[0] == 1
            with pytest.raises(sqlite3.IntegrityError):
                db.connection.execute(
                    "INSERT INTO trial (exp_id, name) VALUES (99999, 'orphan')"
                )

    def test_replace_is_transactional(self):
        # replacing a trial deletes the old rows and inserts the new ones
        # inside one transaction; a failed save must leave the old trial
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial())
            bad = make_trial()
            bad._calls = bad._calls[:, :1]  # malformed: thread dim mismatch
            with pytest.raises(ProfileError, match="calls array shape"):
                db.save_trial("A", "E", bad, replace=True)
            loaded = db.load_trial("A", "E", "1_2")
            assert_trials_equal(make_trial(), loaded)

    def test_cascade_delete_cleans_fact_tables(self):
        # metric and event rows name two axes; the trial row holds the rest
        tables = ("metric", "event")
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial("t1"))
            db.save_trial("A", "E", make_trial("t2"))

            def counts():
                return [db.connection.execute(
                    f"SELECT COUNT(*) FROM {t}").fetchone()[0] for t in tables]

            before = counts()
            db.delete_trial("A", "E", "t1")
            after = counts()
            assert before == [2 * n for n in after]  # t1's rows cascaded away
            assert all(after)

    def test_cascade_indexes_exist(self):
        # every child of trial is indexed on trial_id first, so deleting
        # a trial (replacement) touches only that trial's rows
        with PerfDMF() as db:
            conn = db.connection
            for table in ("metric", "event"):
                leading = {
                    conn.execute(f"PRAGMA index_info('{idx[1]}')").fetchone()[2]
                    for idx in conn.execute(f"PRAGMA index_list('{table}')")
                }
                assert "trial_id" in leading, table
            names = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master")}
        assert not {"value", "callcount", "thread", "idx_value_event",
                    "idx_value_thread", "idx_callcount_thread"} & names
