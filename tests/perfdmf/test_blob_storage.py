"""Blob storage: bitwise round trips, the stored content hash, the
row-coded value blob and the axes blob (thread ids and the coded callgraph)
of schema version 3, and the migrations from the version-0 row schema (one
row per value cell), the version-1 schema (one float64 blob per matrix)
and the version-2 schema (the value blob, with thread rows and the
callgraph in the metadata JSON)."""

import json
import sqlite3

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.perfdmf import PerfDMF, ProfileError, Trial, TrialBuilder
from repro.perfdmf.database import _encode, _stack

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

#: The version-1 schema: a float64 blob per matrix on the metric and
#: trial rows, as files written before the row-coded blob hold it.
V1_SCHEMA = """
CREATE TABLE application (
    id INTEGER PRIMARY KEY, name TEXT NOT NULL UNIQUE,
    metadata TEXT NOT NULL DEFAULT '{}');
CREATE TABLE experiment (
    id INTEGER PRIMARY KEY,
    app_id INTEGER NOT NULL REFERENCES application(id) ON DELETE CASCADE,
    name TEXT NOT NULL, metadata TEXT NOT NULL DEFAULT '{}',
    UNIQUE (app_id, name));
CREATE TABLE trial (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    exp_id INTEGER NOT NULL REFERENCES experiment(id) ON DELETE CASCADE,
    name TEXT NOT NULL, metadata TEXT NOT NULL DEFAULT '{}',
    calls BLOB NOT NULL, subroutines BLOB NOT NULL,
    content_hash TEXT NOT NULL, UNIQUE (exp_id, name));
CREATE TABLE metric (
    id INTEGER PRIMARY KEY,
    trial_id INTEGER NOT NULL REFERENCES trial(id) ON DELETE CASCADE,
    name TEXT NOT NULL, units TEXT NOT NULL DEFAULT 'counts',
    derived INTEGER NOT NULL DEFAULT 0,
    exclusive BLOB NOT NULL, inclusive BLOB NOT NULL,
    UNIQUE (trial_id, name));
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
"""


#: The version-2 schema: one value blob per trial (the layout version 3
#: keeps), with a row per thread and the callgraph in the metadata JSON.
V2_SCHEMA = V1_SCHEMA.replace(
    "calls BLOB NOT NULL, subroutines BLOB NOT NULL",
    "data BLOB NOT NULL").replace(
    """derived INTEGER NOT NULL DEFAULT 0,
    exclusive BLOB NOT NULL, inclusive BLOB NOT NULL,""",
    "derived INTEGER NOT NULL DEFAULT 0,")


def make_trial(name="t", seed=0, n_events=5, n_threads=6, zero=-0.0):
    rng = np.random.default_rng(seed)
    exc = rng.random((n_events, n_threads)) * 1e3
    exc[0, 0] = zero  # blobs keep the sign bit of -0.0
    exc[-1, -1] = 5e-324
    ratio = rng.standard_normal((n_events, n_threads))
    trial = (
        TrialBuilder(name, {"threads": n_threads, "seed": seed,
                            "callgraph": [["main", "region_0"],
                                          ["region_0", "ext"]],
                            "nested": {"flags": ["-O3"]}})
        .with_events(["main"] + [f"region_{i}" for i in range(n_events - 1)])
        .with_threads(n_threads, node_of=lambda i: i // 2)
        .with_metric("TIME", exc, exc * 1.5 + 1.0, units="usec")
        .with_metric("CPU_CYCLES", exc * 3e6, exc * 4e6)
        .with_metric("(TIME / CPU_CYCLES)", ratio, -ratio, derived=True)
        .with_calls(rng.integers(0, 100, exc.shape), rng.random(exc.shape))
        .build()
    )
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


def save_v1(conn, application, experiment, trial):
    """Store ``trial`` the way schema version 1 did: one C-order
    little-endian float64 blob per matrix (its hash is a placeholder)."""
    def blob(array):
        return array.astype("<f8").tobytes()

    conn.execute("INSERT OR IGNORE INTO application (name) VALUES (?)",
                 (application,))
    app_id = conn.execute("SELECT id FROM application WHERE name = ?",
                          (application,)).fetchone()[0]
    conn.execute("INSERT OR IGNORE INTO experiment (app_id, name) "
                 "VALUES (?, ?)", (app_id, experiment))
    exp_id = conn.execute("SELECT id FROM experiment WHERE name = ?",
                          (experiment,)).fetchone()[0]
    trial_id = conn.execute(
        "INSERT INTO trial (exp_id, name, metadata, calls, subroutines, "
        "content_hash) VALUES (?, ?, ?, ?, ?, 'v1')",
        (exp_id, trial.name, json.dumps(trial.metadata),
         blob(trial.calls_array()), blob(trial.subroutines_array()))
    ).lastrowid
    conn.executemany("INSERT INTO metric (trial_id, name, units, derived, "
                     "exclusive, inclusive) VALUES (?, ?, ?, ?, ?, ?)", [
                         (trial_id, m.name, m.units, int(m.derived),
                          blob(trial.exclusive_array(m.name)),
                          blob(trial.inclusive_array(m.name)))
                         for m in trial.metrics])
    conn.executemany("INSERT INTO event (trial_id, name, grp) "
                     "VALUES (?, ?, ?)",
                     [(trial_id, e.name, e.group) for e in trial.events])
    conn.executemany("INSERT INTO thread (trial_id, node, context, thread) "
                     "VALUES (?, ?, ?, ?)",
                     [(trial_id, t.node, t.context, t.thread)
                      for t in trial.threads])
    return trial_id


@pytest.fixture
def v1_file(tmp_path):
    """A version-1 file holding three trials (blobs keep -0.0) and the
    id sequence of a fourth, deleted one."""
    path = tmp_path / "v1.db"
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA foreign_keys = ON")
    conn.executescript(V1_SCHEMA)
    trials = {("A", "E1", "t1"): make_trial("t1", seed=1),
              ("A", "E1", "t2"): make_trial("t2", seed=2, n_events=1),
              ("A", "E2", "t1"): make_trial("t1", seed=3, n_threads=1)}
    ids = {key: save_v1(conn, key[0], key[1], trial)
           for key, trial in trials.items()}
    deleted = save_v1(conn, "A", "E2", make_trial("gone"))
    conn.execute("DELETE FROM trial WHERE id = ?", (deleted,))
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()
    return path, trials, ids, deleted


def save_v2(conn, application, experiment, trial):
    """Store ``trial`` the way schema version 2 did: the value blob on the
    trial row (its hash is a placeholder), a row per thread, and the
    callgraph inside the metadata JSON."""
    conn.execute("INSERT OR IGNORE INTO application (name) VALUES (?)",
                 (application,))
    app_id = conn.execute("SELECT id FROM application WHERE name = ?",
                          (application,)).fetchone()[0]
    conn.execute("INSERT OR IGNORE INTO experiment (app_id, name) "
                 "VALUES (?, ?)", (app_id, experiment))
    exp_id = conn.execute("SELECT id FROM experiment WHERE name = ?",
                          (experiment,)).fetchone()[0]
    names = trial.metric_names()
    data = _encode(_stack([trial.exclusive_array(m) for m in names],
                          [trial.inclusive_array(m) for m in names],
                          trial.calls_array(), trial.subroutines_array()))
    trial_id = conn.execute(
        "INSERT INTO trial (exp_id, name, metadata, data, content_hash) "
        "VALUES (?, ?, ?, ?, 'v2')",
        (exp_id, trial.name, json.dumps(trial.metadata), data)).lastrowid
    conn.executemany("INSERT INTO metric (trial_id, name, units, derived) "
                     "VALUES (?, ?, ?, ?)", [
                         (trial_id, m.name, m.units, int(m.derived))
                         for m in trial.metrics])
    conn.executemany("INSERT INTO event (trial_id, name, grp) "
                     "VALUES (?, ?, ?)",
                     [(trial_id, e.name, e.group) for e in trial.events])
    conn.executemany("INSERT INTO thread (trial_id, node, context, thread) "
                     "VALUES (?, ?, ?, ?)",
                     [(trial_id, t.node, t.context, t.thread)
                      for t in trial.threads])
    return trial_id


def with_callgraph(trial, callgraph):
    """``trial`` with ``metadata["callgraph"]`` set, keeping the key's
    place between the other keys."""
    return with_threads(trial, trial.thread_array(),
                        {**trial.metadata, "callgraph": callgraph})


def with_threads(trial, threads, metadata=None):
    """``trial`` over the ``(T, 3)`` thread ids ``threads``."""
    names = trial.metric_names()
    return Trial.from_arrays(
        trial.name, metadata or trial.metadata, trial.events, np.array(threads),
        trial.metrics, [trial.exclusive_array(m) for m in names],
        [trial.inclusive_array(m) for m in names], trial.calls_array(),
        trial.subroutines_array())


#: callgraph cases of the version-2 file, by trial name
V2_CALLGRAPHS = {
    "inside": [["main", "region_0"], ["region_0", "region_1"]],
    "outside": [["main", "ext_b"], ["ext_a", "region_0"], ["main", "ext_b"],
                ["ext_a", "ext_a"], ["region_1", "é\udcff"], ["main", ""]],
    "empty": [],
    "malformed": [["main", "region_0", "region_1"], ["main", 3]],
    "nul": [["main", "a\0b"]],
    "absent": None,
}


def v2_trial(name, seed=0):
    trial = make_trial(name, seed=seed)
    callgraph = V2_CALLGRAPHS[name]
    if callgraph is None:
        del trial.metadata["callgraph"]
        return trial
    return with_callgraph(trial, callgraph)


@pytest.fixture
def v2_file(tmp_path):
    """A version-2 file holding a trial per callgraph case, one with a
    single thread, and the id sequence of a deleted trial."""
    path = tmp_path / "v2.db"
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA foreign_keys = ON")
    conn.executescript(V2_SCHEMA)
    trials = {("A", "E1", name): v2_trial(name, seed)
              for seed, name in enumerate(V2_CALLGRAPHS)}
    trials["A", "E2", "inside"] = with_callgraph(
        make_trial("inside", seed=9, n_threads=1), V2_CALLGRAPHS["outside"])
    ids = {key: save_v2(conn, key[0], key[1], trial)
           for key, trial in trials.items()}
    deleted = save_v2(conn, "A", "E2", make_trial("gone"))
    conn.execute("DELETE FROM trial WHERE id = ?", (deleted,))
    conn.execute("PRAGMA user_version = 2")
    conn.commit()
    conn.close()
    return path, trials, ids, deleted


class TestV2Migration:
    def test_read_write_open_migrates_every_trial_bitwise(self, v2_file):
        path, trials, ids, _ = v2_file
        with PerfDMF(path) as db:
            for (app, exp, name), trial in trials.items():
                assert db.trial_id(app, exp, name) == ids[app, exp, name]
                loaded = db.load_trial(app, exp, name)
                assert_bitwise_equal(trial, loaded)
                assert json.dumps(loaded.metadata) == \
                    json.dumps(trial.metadata)

    def test_trial_metadata_keeps_values_and_key_order(self, v2_file):
        path, trials, _, _ = v2_file
        with PerfDMF(path) as db:
            for (app, exp, name), trial in trials.items():
                meta = db.trial_metadata(app, exp, name)
                assert list(meta) == list(trial.metadata)
                assert json.dumps(meta) == json.dumps(trial.metadata)

    def test_migrated_hash_equals_hash_of_a_fresh_save(self, v2_file):
        path, trials, _, _ = v2_file
        with PerfDMF(path) as db, PerfDMF() as fresh:
            for (app, exp, name), trial in trials.items():
                fresh.save_trial(app, exp, trial)
                assert db.content_hash(app, exp, name) == \
                    fresh.content_hash(app, exp, name)

    def test_only_well_formed_callgraphs_leave_the_metadata_json(
            self, v2_file):
        path, trials, ids, _ = v2_file
        PerfDMF(path).close()
        conn = sqlite3.connect(path)
        stored = {trial_id: json.loads(meta) for trial_id, meta in
                  conn.execute("SELECT id, metadata FROM trial")}
        conn.close()
        for key, trial in trials.items():
            meta = stored[ids[key]]
            if key[2] in ("inside", "outside", "empty", "nul"):
                assert meta["callgraph"] is None
            elif key[2] == "absent":
                assert "callgraph" not in meta
            else:
                assert json.dumps(meta["callgraph"]) == \
                    json.dumps(trial.metadata["callgraph"])

    def test_thread_rows_are_gone_and_version_is_3(self, v2_file):
        path = v2_file[0]
        PerfDMF(path).close()
        conn = sqlite3.connect(path)
        tables = {r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        columns = {r[1] for r in conn.execute("PRAGMA table_info(trial)")}
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 3
        assert conn.execute("PRAGMA foreign_key_check").fetchall() == []
        conn.close()
        assert not {"thread", "old_trial", "old_metric"} & tables
        assert {"axes", "data"} <= columns

    def test_a_deleted_trials_id_stays_unused(self, v2_file):
        path, _, _, deleted = v2_file
        with PerfDMF(path) as db:
            assert db.save_trial("A", "E3", make_trial("new")) > deleted

    def test_read_only_open_of_an_unmigrated_file_says_what_to_do(
            self, v2_file):
        path = v2_file[0]
        with pytest.raises(ProfileError, match="version 2; open it "
                           "read-write once"):
            PerfDMF(path, read_only=True)
        PerfDMF(path).close()
        with PerfDMF(path, read_only=True) as view:
            assert view.trials("A", "E2") == ["inside"]


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
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 3
        assert conn.execute("PRAGMA foreign_key_check").fetchall() == []
        conn.close()
        assert not {"value", "callcount", "thread", "old_trial", "old_metric",
                    "idx_value_event", "idx_value_thread",
                    "idx_callcount_thread"} & names

    def test_migrated_store_keeps_cascades_and_never_reuses_ids(self, v0_file):
        path, trials, ids = v0_file
        with PerfDMF(path) as db:
            db.delete_trial("A", "E1", "t1")
            conn = db.connection
            for table in ("metric", "event"):
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


class TestV1Migration:
    def test_read_write_open_migrates_every_trial_bitwise(self, v1_file):
        path, trials, ids, _ = v1_file
        with PerfDMF(path) as db:
            for (app, exp, name), trial in trials.items():
                assert db.trial_id(app, exp, name) == ids[app, exp, name]
                assert_bitwise_equal(trial, db.load_trial(app, exp, name))

    def test_migrated_hash_equals_hash_of_a_fresh_save(self, v1_file):
        path, trials, _, _ = v1_file
        with PerfDMF(path) as db, PerfDMF() as fresh:
            for (app, exp, name), trial in trials.items():
                fresh.save_trial(app, exp, trial)
                assert db.content_hash(app, exp, name) == \
                    fresh.content_hash(app, exp, name)

    def test_blob_columns_are_gone_and_version_is_3(self, v1_file):
        path, _, _, _ = v1_file
        PerfDMF(path).close()
        conn = sqlite3.connect(path)
        tables = {r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        columns = {table: {r[1] for r in conn.execute(
            f"PRAGMA table_info({table})")} for table in ("trial", "metric")}
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 3
        assert conn.execute("PRAGMA foreign_key_check").fetchall() == []
        conn.close()
        assert not {"thread", "old_trial", "old_metric"} & tables
        assert not {"calls", "subroutines"} & columns["trial"]
        assert not {"exclusive", "inclusive"} & columns["metric"]

    def test_a_deleted_trials_id_stays_unused(self, v1_file):
        path, _, _, deleted = v1_file
        with PerfDMF(path) as db:
            assert db.save_trial("A", "E3", make_trial("new")) > deleted

    def test_read_only_open_of_an_unmigrated_file_says_what_to_do(
            self, v1_file):
        path = v1_file[0]
        with pytest.raises(ProfileError, match="open it read-write once"):
            PerfDMF(path, read_only=True)
        PerfDMF(path).close()
        with PerfDMF(path, read_only=True) as view:
            assert view.trials("A", "E1") == ["t1", "t2"]


@pytest.mark.parametrize("read_only", [False, True])
def test_a_newer_schema_is_refused_not_restamped(tmp_path, read_only):
    path = tmp_path / "new.db"
    PerfDMF(path).close()
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA user_version = 7")
    conn.close()
    with pytest.raises(ProfileError, match=rf"{path}.* version 7.* version 3"):
        PerfDMF(path, read_only=read_only)
    conn = sqlite3.connect(path)
    assert conn.execute("PRAGMA user_version").fetchone()[0] == 7
    conn.close()


def test_a_version_3_file_restamped_1_by_an_older_build_is_not_migrated(
        tmp_path):
    # builds that knew only version 1 set user_version 1 on every open
    path = tmp_path / "perf.db"
    with PerfDMF(path) as db:
        db.save_trial("A", "E", make_trial())
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA user_version = 1")
    conn.close()
    with PerfDMF(path, read_only=True) as view:
        assert_bitwise_equal(make_trial(), view.load_trial("A", "E", "t"))
    with PerfDMF(path) as db:
        assert_bitwise_equal(make_trial(), db.load_trial("A", "E", "t"))
    conn = sqlite3.connect(path)
    assert conn.execute("PRAGMA user_version").fetchone()[0] == 3
    conn.close()


def test_a_version_2_file_restamped_1_migrates_as_version_2(tmp_path):
    path = tmp_path / "perf.db"
    conn = sqlite3.connect(path)
    conn.executescript(V2_SCHEMA)
    save_v2(conn, "A", "E", make_trial())
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()
    with pytest.raises(ProfileError, match="version 2; open it read-write"):
        PerfDMF(path, read_only=True)
    with PerfDMF(path) as db:
        assert_bitwise_equal(make_trial(), db.load_trial("A", "E", "t"))


class TestCorruptBlob:
    @pytest.fixture
    def db(self):
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial())
            yield db

    def test_truncated_blob_is_a_named_error(self, db):
        db.connection.execute(
            "UPDATE trial SET data = substr(data, 1, length(data) - 3)")
        size, = db.connection.execute(
            "SELECT length(data) FROM trial").fetchone()
        with pytest.raises(ProfileError, match=rf"A/E/t: {size} bytes, "
                           rf"want {size + 3}"):
            db.load_trial("A", "E", "t")

    # 3 metrics × 5 events: kind rows 0-14 are exclusive, 15-29 inclusive,
    # 30-34 calls and 35-39 subroutines; 2 is valid on inclusive rows only
    @pytest.mark.parametrize("row, kind", [(0, 7), (0, 2), (30, 2), (39, 3)])
    def test_bad_kind_byte_is_a_named_error(self, db, row, kind):
        blob = bytearray(db.connection.execute(
            "SELECT data FROM trial").fetchone()[0])
        blob[row] = kind
        db.connection.execute("UPDATE trial SET data = ?", (bytes(blob),))
        with pytest.raises(ProfileError, match="A/E/t: a kind byte"):
            db.load_trial("A", "E", "t")


class TestCorruptAxes:
    @pytest.fixture
    def db(self):
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial())
            yield db

    def set_axes(self, db, edit):
        axes, = db.connection.execute("SELECT axes FROM trial").fetchone()
        db.connection.execute("UPDATE trial SET axes = ?", (edit(axes),))

    @pytest.mark.parametrize("edit", [
        lambda axes: axes[:12],  # a cut header
        lambda axes: axes[:16 + 24 * 6 + 4],  # cut inside the codes
        lambda axes: axes[:8] + (99).to_bytes(8, "little") + axes[16:],
        lambda axes: (-3).to_bytes(8, "little", signed=True)
        + axes[8:],  # a negative count of threads
        lambda axes: axes[:8] + (-2).to_bytes(8, "little", signed=True)
        + axes[16:],  # an edge count below -1
        lambda axes: axes[:8] + (-1).to_bytes(8, "little", signed=True)
        + axes[16:],  # no callgraph, yet codes and names follow
        lambda axes: axes[:-1] + b"\xff",  # names that are not UTF-8
        lambda axes: axes[:16 + 24 * 6 + 16] + b'{"ext": 1}',  # not a list
        lambda axes: axes[:16 + 24 * 6 + 16] + b'[3]',  # not a string
        lambda axes: axes + b"more",  # bytes past the names
        lambda axes: axes[:16 + 24 * 6] + (7).to_bytes(4, "little")
        + axes[16 + 24 * 6 + 4:],  # a code past the names table
    ])
    def test_a_bad_axes_blob_is_a_named_error(self, db, edit):
        self.set_axes(db, edit)
        with pytest.raises(ProfileError, match="corrupt axes blob for trial "
                           "A/E/t"):
            db.load_trial("A", "E", "t")
        with pytest.raises(ProfileError, match="corrupt axes blob"):
            db.trial_metadata("A", "E", "t")


class TestBlobStore:
    def test_axes_blob_is_counts_then_thread_ids_then_codes_then_names(self):
        trial = (TrialBuilder("t", {"before": 1, "callgraph": [
            ["main", "e\0x"], ["e\0x", "leaf"], ["main", "é"]], "after": 2})
            .with_events(["main", "leaf"]).with_threads(2, node_of=lambda i: 5)
            .with_metric("TIME", np.ones((2, 2))).build())
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            meta, axes = db.connection.execute(
                "SELECT metadata, axes FROM trial").fetchone()
            assert db.trial_metadata("A", "E", "t") == trial.metadata
        # the callgraph leaves a null at its key
        assert meta == '{"before": 1, "callgraph": null, "after": 2}'
        assert axes == (np.array([2, 3], "<i8").tobytes()
                        + np.array([[5, 0, 0], [5, 0, 1]], "<i8").tobytes()
                        + np.array([[0, 2], [2, 1], [0, 3]], "<i4").tobytes()
                        + b'["e\\u0000x", "\\u00e9"]')

    def test_a_trial_without_a_coded_callgraph_stores_minus_one_edges(self):
        trial = (TrialBuilder("t", {"callgraph": "main -> leaf"})
                 .with_events(["main"]).with_threads(1)
                 .with_metric("TIME", np.ones((1, 1))).build())
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            meta, axes = db.connection.execute(
                "SELECT metadata, axes FROM trial").fetchone()
            loaded = db.load_trial("A", "E", "t")
        assert meta == '{"callgraph": "main -> leaf"}'
        assert axes == np.array([1, -1, 0, 0, 0], "<i8").tobytes()
        assert loaded.metadata == trial.metadata and loaded.callgraph is None

    def test_save_load_is_bitwise(self):
        trial = make_trial()
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            loaded = db.load_trial("A", "E", "t")
        assert_bitwise_equal(trial, loaded)
        loaded.exclusive_array("TIME")[0, 0] = 1.0  # loaded arrays are writable

    def test_blob_is_kinds_then_constants_then_full_rows(self):
        exc = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        inc = np.array([[10.0, 20.0, 30.0], [5.0, 5.0, 5.0]])
        calls = np.array([[1.0, 1.0, 1.0], [2.0, 3.0, 4.0]])
        subrs = np.array([[-0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        trial = (TrialBuilder("t").with_events(["main", "leaf"])
                 .with_threads(3).with_metric("TIME", exc, inc)
                 .with_calls(calls, subrs).build())
        with PerfDMF() as db:
            db.save_trial("A", "E", trial)
            blob, = db.connection.execute("SELECT data FROM trial").fetchone()
        # (matrix, event) rows: exclusive, inclusive, calls, subroutines;
        # the leaf's constant inclusive row is kind 2, not 1, and the
        # signed zeros are not one value
        assert blob == (bytes([0, 1, 0, 2, 1, 0, 0, 1])
                        + np.array([5.0, 1.0, 0.0], "<f8").tobytes()
                        + np.stack([exc[0], inc[0], calls[1], subrs[0]])
                        .astype("<f8").tobytes())

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


VALUES = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 3.5]) \
    | st.floats(0.0, 1e12, allow_nan=False)


@st.composite
def row_coded_trials(draw):
    """Trials mixing full, constant, signed-zero and leaf rows, with any
    axis possibly empty."""
    n_events, n_threads = draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def matrix(exclusive=None):
        rows = []
        for e in range(n_events):
            shape = draw(st.sampled_from(
                ["full", "constant", "signed zero"]
                + ["leaf"] * (exclusive is not None)))
            if shape == "full":
                rows.append(draw(st.lists(VALUES, min_size=n_threads,
                                          max_size=n_threads)))
            elif shape == "constant":
                rows.append([draw(VALUES)] * n_threads)
            elif shape == "signed zero":
                rows.append([-0.0 if i % 2 else 0.0 for i in range(n_threads)])
            else:
                rows.append(list(exclusive[e]))
        return np.array(rows, dtype=float).reshape(n_events, n_threads)

    builder = (TrialBuilder("prop", {"threads": n_threads})
               .with_events([f"e{i}" for i in range(n_events)])
               .with_threads(n_threads))
    for k in range(draw(st.integers(0, 2))):
        exc = matrix()
        builder.with_metric(f"M{k}", exc, matrix(exclusive=exc), derived=True)
    return builder.with_calls(matrix(), matrix()).build(validate=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trial=row_coded_trials())
def test_row_coded_round_trip_is_bitwise_and_rehashes_the_same(trial):
    with PerfDMF() as db:
        db.save_trial("A", "E", trial)
        first = db.content_hash("A", "E", "prop")
        loaded = db.load_trial("A", "E", "prop")
        assert_bitwise_equal(trial, loaded)
        db.save_trial("A", "E", loaded, replace=True)
        assert db.content_hash("A", "E", "prop") == first


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

    @pytest.mark.parametrize("callgraph", [
        [["main", "region_0"]],  # an edge fewer
        [["region_0", "ext"], ["main", "region_0"]],  # the order
        [["main", "region_0"], ["region_0", "ext2"]],  # a name outside
        [["main", "region_0"], ["region_0", "region_1"]],  # a name inside
    ])
    def test_any_change_to_the_edges_changes_it(self, callgraph):
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial())
            db.save_trial("A", "F", with_callgraph(make_trial(), callgraph))
            assert db.content_hash("A", "E", "t") != \
                db.content_hash("A", "F", "t")

    @pytest.mark.parametrize("threads", [
        [(0, 0, 0), (0, 0, 1), (1, 0, 2), (1, 0, 3), (2, 0, 4), (2, 1, 5)],
        [(0, 0, 1), (0, 0, 0), (1, 0, 2), (1, 0, 3), (2, 0, 4), (2, 0, 5)],
    ])
    def test_any_change_to_the_thread_ids_changes_it(self, threads):
        changed = with_threads(make_trial(), threads)
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial())
            db.save_trial("A", "F", changed)
            assert db.content_hash("A", "E", "t") != \
                db.content_hash("A", "F", "t")

    def test_event_and_thread_order_count(self):
        trial = make_trial(n_events=2, n_threads=2)
        builder = (
            TrialBuilder("t", trial.metadata)
            .with_events(["region_0", "main"])
            .with_threads(2)
        )
        for m in trial.metrics:
            builder.with_metric(m, trial.exclusive_array(m.name)[::-1],
                                trial.inclusive_array(m.name)[::-1])
        swapped = builder.with_calls(trial.calls_array()[::-1],
                                     trial.subroutines_array()[::-1]).build()
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
