"""Blob storage: bitwise round trips, the stored content hash, and the
migration from the version-0 row schema (one row per value cell)."""

import json
import sqlite3

import numpy as np
import pytest

from repro.perfdmf import PerfDMF, ProfileError, TrialBuilder

#: The version-0 schema, as files written before the blob layout hold it.
V0_SCHEMA = """
CREATE TABLE application (
    id INTEGER PRIMARY KEY, name TEXT NOT NULL UNIQUE,
    metadata TEXT NOT NULL DEFAULT '{}');
CREATE TABLE experiment (
    id INTEGER PRIMARY KEY,
    app_id INTEGER NOT NULL REFERENCES application(id) ON DELETE CASCADE,
    name TEXT NOT NULL, metadata TEXT NOT NULL DEFAULT '{}',
    UNIQUE (app_id, name));
CREATE TABLE trial (
    id INTEGER PRIMARY KEY,
    exp_id INTEGER NOT NULL REFERENCES experiment(id) ON DELETE CASCADE,
    name TEXT NOT NULL, metadata TEXT NOT NULL DEFAULT '{}',
    UNIQUE (exp_id, name));
CREATE TABLE metric (
    id INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    name TEXT NOT NULL, units TEXT NOT NULL DEFAULT 'counts',
    derived INTEGER NOT NULL DEFAULT 0, UNIQUE (trial_id, name));
CREATE TABLE event (
    id INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    name TEXT NOT NULL, grp TEXT NOT NULL DEFAULT 'TAU_DEFAULT',
    UNIQUE (trial_id, name));
CREATE TABLE thread (
    id INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    node INTEGER NOT NULL, context INTEGER NOT NULL, thread INTEGER NOT NULL,
    UNIQUE (trial_id, node, context, thread));
CREATE TABLE value (
    metric_id INTEGER NOT NULL REFERENCES metric(id) ON DELETE CASCADE,
    event_id INTEGER NOT NULL REFERENCES event(id) ON DELETE CASCADE,
    thread_id INTEGER NOT NULL REFERENCES thread(id) ON DELETE CASCADE,
    exclusive REAL NOT NULL, inclusive REAL NOT NULL,
    PRIMARY KEY (metric_id, event_id, thread_id));
CREATE TABLE callcount (
    event_id INTEGER NOT NULL REFERENCES event(id) ON DELETE CASCADE,
    thread_id INTEGER NOT NULL REFERENCES thread(id) ON DELETE CASCADE,
    calls REAL NOT NULL, subroutines REAL NOT NULL,
    PRIMARY KEY (event_id, thread_id));
CREATE INDEX idx_value_event ON value(event_id);
CREATE INDEX idx_value_thread ON value(thread_id);
CREATE INDEX idx_callcount_thread ON callcount(thread_id);
"""


def make_trial(name="t", seed=0, n_events=5, n_threads=6, zero=-0.0):
    rng = np.random.default_rng(seed)
    exc = rng.random((n_events, n_threads)) * 1e3
    exc[0, 0] = zero  # blobs keep the sign bit of -0.0
    exc[-1, -1] = 5e-324
    ratio = rng.standard_normal((n_events, n_threads))
    trial = (
        TrialBuilder(name, {"threads": n_threads, "seed": seed,
                            "nested": {"flags": ["-O3"]}})
        .with_events(["main"] + [f"region_{i}" for i in range(n_events - 1)])
        .with_threads(n_threads, node_of=lambda i: i // 2)
        .with_metric("TIME", exc, exc * 1.5 + 1.0, units="usec")
        .with_metric("CPU_CYCLES", exc * 3e6, exc * 4e6)
        .with_calls(rng.integers(0, 100, exc.shape), rng.random(exc.shape))
        .build()
    )
    trial.add_metric("(TIME / CPU_CYCLES)", derived=True)
    trial._exclusive["(TIME / CPU_CYCLES)"][:] = ratio
    trial._inclusive["(TIME / CPU_CYCLES)"][:] = -ratio
    return trial


def assert_bitwise_equal(a, b):
    assert a.name == b.name and a.metadata == b.metadata
    assert [(e.name, e.group) for e in a.events] == \
        [(e.name, e.group) for e in b.events]
    assert a.threads == b.threads
    assert a.metrics == b.metrics
    for m in a.metric_names():
        assert a.exclusive_array(m).tobytes() == b.exclusive_array(m).tobytes()
        assert a.inclusive_array(m).tobytes() == b.inclusive_array(m).tobytes()
    assert a.calls_array().tobytes() == b.calls_array().tobytes()
    assert a.subroutines_array().tobytes() == \
        b.subroutines_array().tobytes()


def save_v0(conn, application, experiment, trial):
    """Store ``trial`` the way the row schema did: a row per cell."""
    def insert(sql, params):
        return conn.execute(sql, params).lastrowid

    conn.execute("INSERT OR IGNORE INTO application (name) VALUES (?)",
                 (application,))
    app_id = conn.execute("SELECT id FROM application WHERE name = ?",
                          (application,)).fetchone()[0]
    conn.execute("INSERT OR IGNORE INTO experiment (app_id, name) "
                 "VALUES (?, ?)", (app_id, experiment))
    exp_id = conn.execute("SELECT id FROM experiment WHERE name = ?",
                          (experiment,)).fetchone()[0]
    trial_id = insert("INSERT INTO trial (exp_id, name, metadata) "
                      "VALUES (?, ?, ?)",
                      (exp_id, trial.name, json.dumps(trial.metadata)))
    events = [insert("INSERT INTO event (trial_id, name, grp) "
                     "VALUES (?, ?, ?)", (trial_id, e.name, e.group))
              for e in trial.events]
    threads = [insert("INSERT INTO thread (trial_id, node, context, thread) "
                      "VALUES (?, ?, ?, ?)",
                      (trial_id, t.node, t.context, t.thread))
               for t in trial.threads]
    cells = [(e, t, ei, ti) for e, ei in enumerate(events)
             for t, ti in enumerate(threads)]
    for m in trial.metrics:
        metric_id = insert("INSERT INTO metric (trial_id, name, units, "
                           "derived) VALUES (?, ?, ?, ?)",
                           (trial_id, m.name, m.units, int(m.derived)))
        exc, inc = trial.exclusive_array(m.name), trial.inclusive_array(m.name)
        conn.executemany("INSERT INTO value VALUES (?, ?, ?, ?, ?)", [
            (metric_id, ei, ti, float(exc[e, t]), float(inc[e, t]))
            for e, t, ei, ti in cells])
    calls, subrs = trial.calls_array(), trial.subroutines_array()
    conn.executemany("INSERT INTO callcount VALUES (?, ?, ?, ?)", [
        (ei, ti, float(calls[e, t]), float(subrs[e, t]))
        for e, t, ei, ti in cells])
    return trial_id


@pytest.fixture
def v0_file(tmp_path):
    """A version-0 file holding three trials under two experiments.

    SQLite writes integral REAL values as integers, so the row schema
    never kept -0.0; these trials hold +0.0 instead."""
    path = tmp_path / "v0.db"
    conn = sqlite3.connect(path)
    conn.executescript(V0_SCHEMA)
    trials = {("A", "E1", "t1"): make_trial("t1", seed=1, zero=0.0),
              ("A", "E1", "t2"): make_trial("t2", seed=2, n_events=1, zero=0.0),
              ("A", "E2", "t1"): make_trial("t1", seed=3, n_threads=1, zero=0.0)}
    ids = {key: save_v0(conn, key[0], key[1], trial)
           for key, trial in trials.items()}
    conn.commit()
    assert conn.execute("PRAGMA user_version").fetchone()[0] == 0
    conn.close()
    return path, trials, ids


class TestMigration:
    def test_read_write_open_migrates_every_trial_bitwise(self, v0_file):
        path, trials, ids = v0_file
        with PerfDMF(path) as db:
            for (app, exp, name), trial in trials.items():
                assert db.trial_id(app, exp, name) == ids[app, exp, name]
                assert_bitwise_equal(trial, db.load_trial(app, exp, name))

    def test_migrated_hash_equals_hash_of_a_fresh_save(self, v0_file):
        path, trials, _ = v0_file
        with PerfDMF(path) as db, PerfDMF() as fresh:
            for (app, exp, name), trial in trials.items():
                fresh.save_trial(app, exp, trial)
                assert db.content_hash(app, exp, name) == \
                    fresh.content_hash(app, exp, name)

    def test_row_tables_are_gone_and_version_is_recorded(self, v0_file):
        path, _, _ = v0_file
        PerfDMF(path).close()
        conn = sqlite3.connect(path)
        names = {r[0] for r in conn.execute("SELECT name FROM sqlite_master")}
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 1
        assert conn.execute("PRAGMA foreign_key_check").fetchall() == []
        conn.close()
        assert not {"value", "callcount", "v0_trial", "v0_metric",
                    "idx_value_event", "idx_value_thread",
                    "idx_callcount_thread"} & names

    def test_migrated_store_keeps_cascades_and_never_reuses_ids(self, v0_file):
        path, trials, ids = v0_file
        with PerfDMF(path) as db:
            db.delete_trial("A", "E1", "t1")
            conn = db.connection
            for table in ("metric", "event", "thread"):
                assert conn.execute(
                    f"SELECT COUNT(*) FROM {table} WHERE trial_id = ?",
                    (ids["A", "E1", "t1"],)).fetchone()[0] == 0
            new_id = db.save_trial("A", "E2", make_trial("t3"))
            assert new_id > max(ids.values())
            assert_bitwise_equal(trials["A", "E1", "t2"],
                                 db.load_trial("A", "E1", "t2"))

    def test_read_only_open_of_an_unmigrated_file_says_what_to_do(
            self, v0_file):
        path, _, _ = v0_file
        with pytest.raises(ProfileError, match="open it read-write once"):
            PerfDMF(path, read_only=True)
        with PerfDMF(path):
            pass
        with PerfDMF(path, read_only=True) as view:
            assert view.trials("A", "E1") == ["t1", "t2"]


class TestBlobStore:
    def test_save_load_is_bitwise(self):
        trial = make_trial()
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            loaded = db.load_trial("A", "E", "t")
        assert_bitwise_equal(trial, loaded)
        loaded.exclusive_array("TIME")[0, 0] = 1.0  # loaded arrays are writable

    def test_values_are_little_endian_float64_blobs(self):
        trial = make_trial()
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            exc, = db.connection.execute(
                "SELECT exclusive FROM metric WHERE name = 'TIME'").fetchone()
            calls, = db.connection.execute(
                "SELECT calls FROM trial").fetchone()
        assert exc == trial.exclusive_array("TIME").astype("<f8").tobytes()
        assert calls == trial.calls_array().astype("<f8").tobytes()

    def test_empty_trial_roundtrips(self):
        trial = TrialBuilder("empty").build()
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            assert_bitwise_equal(trial, db.load_trial("A", "E", "empty"))

    def test_nan_is_refused_before_anything_is_stored(self):
        trial = make_trial()
        trial.exclusive_array("CPU_CYCLES")[2, 3] = np.nan
        with PerfDMF() as db:
            with pytest.raises(ProfileError, match="NaN in metric "
                               "'CPU_CYCLES' exclusive at event 'region_1'"):
                db.save_trial("A", "E", trial)
            assert db.applications() == []

    def test_replacing_the_newest_trial_never_reuses_its_id(self):
        with PerfDMF() as db:
            first = db.save_trial("A", "E", make_trial())
            second = db.save_trial("A", "E", make_trial(seed=1), replace=True)
            third = db.save_trial("A", "E", make_trial(), replace=True)
            assert first < second < third


class TestContentHash:
    def test_identical_reupload_keeps_the_hash(self):
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial())
            first = db.content_hash("A", "E", "t")
            db.save_trial("A", "E", make_trial(), replace=True)
            assert db.content_hash("A", "E", "t") == first

    @pytest.mark.parametrize("change", [
        lambda t: t.metadata.update(seed=99),
        lambda t: t.inclusive_array("TIME").__setitem__((1, 2), 1e9),
        lambda t: t.calls_array().__setitem__((0, 0), 3.0),
        lambda t: t.subroutines_array().__setitem__((4, 5), 0.5),
        lambda t: t._events[1].__setattr__("group", "LOOP"),
        lambda t: t.exclusive_array("TIME").__setitem__((0, 0), 0.0),
    ])
    def test_any_change_to_data_or_metadata_changes_it(self, change):
        changed = make_trial()
        change(changed)
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial())
            db.save_trial("A", "F", changed)
            assert db.content_hash("A", "E", "t") != \
                db.content_hash("A", "F", "t")

    def test_event_and_thread_order_count(self):
        trial = make_trial(n_events=2, n_threads=2)
        swapped = (
            TrialBuilder("t", trial.metadata)
            .with_events(["region_0", "main"])
            .with_threads(2)
            .build()
        )
        for m in trial.metrics:
            swapped.add_metric(m)
            swapped._exclusive[m.name][:] = trial.exclusive_array(m.name)[::-1]
            swapped._inclusive[m.name][:] = trial.inclusive_array(m.name)[::-1]
        swapped._calls[:] = trial.calls_array()[::-1]
        swapped._subrs[:] = trial.subroutines_array()[::-1]
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            db.save_trial("A", "F", swapped)
            assert db.content_hash("A", "E", "t") != \
                db.content_hash("A", "F", "t")


def test_load_reads_one_snapshot_under_a_concurrent_replace(tmp_path,
                                                           monkeypatch):
    # A replace committed between load's statements must not split the
    # trial row from its event, thread and metric rows.
    from repro.perfdmf import database

    path = tmp_path / "perf.db"
    other = make_trial(seed=1, n_events=3)
    with PerfDMF(path) as db, PerfDMF(path) as writer:
        db.save_trial("A", "E", make_trial())
        axes = database._axes

        def replace_then_read(conn, trial_id):
            monkeypatch.setattr(database, "_axes", axes)
            writer.save_trial("A", "E", other, replace=True)
            return axes(conn, trial_id)

        monkeypatch.setattr(database, "_axes", replace_then_read)
        assert_bitwise_equal(make_trial(), db.load_trial("A", "E", "t"))
        assert_bitwise_equal(other, db.load_trial("A", "E", "t"))
