"""Baselines as lineage versions: promotion chains, cascades, the fold of
the old regress registry tables."""

import json

import numpy as np
import pytest

from repro import cli
from repro.lineage import (
    LINEAGE_SCHEMA_VERSION,
    LineageStore,
    PerfBisector,
    ensure_lineage_schema,
    scan_range,
)
from repro.lineage.store import LINEAGE_TABLES
from repro.perfdmf import PerfDMF, ProfileError, TrialBuilder

#: The regress tables exactly as the v1 build shipped them.
V1_SCHEMA = """
CREATE TABLE regress_meta (version INTEGER NOT NULL);
CREATE TABLE baseline (
    id       INTEGER PRIMARY KEY,
    exp_id   INTEGER NOT NULL REFERENCES experiment(id) ON DELETE CASCADE,
    trial_id INTEGER NOT NULL REFERENCES trial(id)      ON DELETE CASCADE,
    active   INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX idx_baseline_exp ON baseline(exp_id);
INSERT INTO regress_meta (version) VALUES (1);
"""

#: v2 added the promotion reason.
V2_SCHEMA = V1_SCHEMA + """
ALTER TABLE baseline ADD COLUMN reason TEXT NOT NULL DEFAULT '';
UPDATE regress_meta SET version = 2;
"""


def make_trial(name, scale=1.0):
    exc = np.array([[1.0, 2.0], [3.0, 4.0]]) * scale
    return (
        TrialBuilder(name, {"threads": 2})
        .with_events(["main", "loop"])
        .with_threads(2)
        .with_metric("TIME", exc, exc * 2)
        .with_calls(np.ones_like(exc), np.zeros_like(exc))
        .build()
    )


def history(store, app, exp):
    """(trial, reason) per promotion whose trial still exists."""
    return [(ref.trial, v.annotations["reason"])
            for v in store.baseline_chain(app, exp) for ref in v.baselines]


@pytest.fixture
def db():
    with PerfDMF() as repo:
        for name in ("t1", "t2", "t3"):
            repo.save_trial("App", "Exp", make_trial(name))
        yield repo


class TestRegistry:
    def test_no_baseline_initially(self, db):
        store = LineageStore(db)
        assert store.baseline_name("App", "Exp") is None
        assert store.baseline_chain("App", "Exp") == []
        assert store.baselines() == []

    def test_set_and_load(self, db):
        store = LineageStore(db)
        record = store.promote("App", "Exp", "t1", reason="first good run")
        assert record.version_id == "baseline/App/Exp/1"
        assert record.parents == ()
        assert record.annotations == {"reason": "first good run"}
        assert [t.trial for t in record.baselines] == ["t1"]
        assert store.baseline_name("App", "Exp") == "t1"

    def test_promotion_keeps_history(self, db):
        store = LineageStore(db)
        store.promote("App", "Exp", "t1", reason="initial")
        second = store.promote("App", "Exp", "t2", reason="20% faster")
        assert second.parents == ("baseline/App/Exp/1",)
        assert history(store, "App", "Exp") == [
            ("t1", "initial"), ("t2", "20% faster")]
        assert [v.version_id for v in store.history(second.version_id)] \
            == ["baseline/App/Exp/2", "baseline/App/Exp/1"]
        assert store.baseline_name("App", "Exp") == "t2"

    def test_list_baselines_across_experiments(self, db):
        db.save_trial("App", "Other", make_trial("x1"))
        store = LineageStore(db)
        store.promote("App", "Other", "x1")
        store.promote("App", "Exp", "t1")
        listed = [(v.baselines[0].experiment, v.baselines[0].trial)
                  for v in store.baselines()]
        assert listed == [("Exp", "t1"), ("Other", "x1")]

    def test_unknown_experiment_or_trial_raises(self, db):
        store = LineageStore(db)
        with pytest.raises(ProfileError):
            store.promote("App", "Nope", "t1")
        with pytest.raises(ProfileError):
            store.promote("App", "Exp", "missing-trial")
        with pytest.raises(ProfileError, match="no experiment"):
            store.baseline_name("App", "Nope")
        with pytest.raises(ProfileError, match="no experiment"):
            store.baseline_chain("Nope", "Exp")
        assert len(store) == 0

    def test_baseline_namespace_is_reserved(self, db):
        store = LineageStore(db)
        with pytest.raises(ProfileError, match="only baseline promotions"):
            store.record("baseline/App/Exp/1")
        store.promote("App", "Exp", "t1")
        with pytest.raises(ProfileError, match="only baseline promotions"):
            store.attach_trial("baseline/App/Exp/1", "App", "Exp", "t2",
                               role="baseline")
        assert store.versions() == ["baseline/App/Exp/1"]
        assert history(store, "App", "Exp") == [("t1", "")]

    def test_promotions_stay_out_of_the_default_tip(self, db):
        db.save_trial("App", "Exp", make_trial("slow", scale=2.0))
        store = LineageStore(db)
        store.record("v1")
        store.attach_trial("v1", "App", "Exp", "t1")
        store.record("v2", parents=["v1"])
        store.attach_trial("v2", "App", "Exp", "slow")
        store.promote("App", "Exp", "t1")
        assert store.tips() == ["v2"]
        assert [v.version_id for v in store.history()] == ["v2", "v1"]
        assert scan_range(store).end == "v2"
        result = PerfBisector(store).bisect("v1")
        assert (result.bad, result.first_bad) == ("v2", "v2")

    def test_baseline_cascades_with_deleted_trial(self, db):
        store = LineageStore(db)
        store.promote("App", "Exp", "t1")
        db.delete_trial("App", "Exp", "t1")
        assert store.baseline_name("App", "Exp") is None
        assert store.baselines() == []

    def test_trial_replacement_drops_stale_baseline(self, db):
        # save_trial(replace=True) deletes + reinserts the trial row, so a
        # baseline must not silently survive pointing at dead data
        store = LineageStore(db)
        store.promote("App", "Exp", "t1")
        db.save_trial("App", "Exp", make_trial("t1"), replace=True)
        assert store.baseline_name("App", "Exp") is None

    def test_replaced_newest_baseline_does_not_fall_back(self, db):
        store = LineageStore(db)
        store.promote("App", "Exp", "t1", reason="first")
        store.promote("App", "Exp", "t2", reason="second")
        db.save_trial("App", "Exp", make_trial("t2"), replace=True)
        assert store.baseline_name("App", "Exp") is None

    def test_slash_in_names_keeps_pairs_apart(self):
        with PerfDMF() as repo:
            repo.save_trial("a/b", "c", make_trial("x"))
            repo.save_trial("a", "b/c", make_trial("y"))
            store = LineageStore(repo)
            store.promote("a/b", "c", "x")
            assert store.baseline_name("a", "b/c") is None
            store.promote("a", "b/c", "y")
            assert store.baseline_name("a/b", "c") == "x"
            assert store.baseline_name("a", "b/c") == "y"

    def test_colon_and_prefix_names_keep_pairs_apart(self):
        with PerfDMF() as repo:
            for app, exp, trial in (("a:b", "c", "x"), ("a", "b:c", "y"),
                                    ("a", "b", "z"), ("a", "b/1", "w")):
                repo.save_trial(app, exp, make_trial(trial))
            store = LineageStore(repo)
            for app, exp, trial in (("a:b", "c", "x"), ("a", "b:c", "y"),
                                    ("a", "b", "z"), ("a", "b/1", "w")):
                store.promote(app, exp, trial)
            assert len({v.version_id for v in store.baselines()}) == 4
            assert [store.baseline_name(*pair) for pair in (
                ("a:b", "c"), ("a", "b:c"), ("a", "b"), ("a", "b/1"))] \
                == ["x", "y", "z", "w"]
            assert [v.version_id for v in store.baseline_chain("a", "b")] \
                == ["baseline/a/b/1"]

    def test_scan_over_the_chain_compares_successive_baselines(self, db):
        db.save_trial("App", "Exp", make_trial("slow", scale=2.0))
        store = LineageStore(db)
        store.promote("App", "Exp", "t1")
        tip = store.promote("App", "Exp", "slow").version_id
        scan = scan_range(store, end=tip)
        assert [(c.baseline_trial, c.candidate_trial, c.verdict)
                for c in scan.comparisons] == [("t1", "slow", "regressed")]


class TestCLI:
    def test_log_shows_the_promotion_history(self, tmp_path, capsys):
        path = str(tmp_path / "perf.db")
        with PerfDMF(path) as repo:
            for name in ("t1", "t2"):
                repo.save_trial("App", "Exp", make_trial(name))
        for trial in ("t1", "t2"):
            assert cli.main(["regress", "baseline", "set", "--db", path,
                             "--app", "App", "--exp", "Exp",
                             "--trial", trial]) == 0
        capsys.readouterr()
        assert cli.main(["lineage", "log", "--db", path, "--json",
                         "--tip", "baseline/App/Exp/2"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert [(v["version_id"], [t["trial"] for t in v["trials"]],
                 v["annotations"]) for v in log] == [
            ("baseline/App/Exp/2", ["t2"], {"reason": "set via CLI"}),
            ("baseline/App/Exp/1", ["t1"], {"reason": "set via CLI"}),
        ]
        assert all(t["role"] == "baseline" for v in log for t in v["trials"])

    def test_list_history_marks_the_active_baseline(self, tmp_path, capsys):
        path = str(tmp_path / "perf.db")
        with PerfDMF(path) as repo:
            for name in ("t1", "t2"):
                repo.save_trial("App", "Exp", make_trial(name))
        for trial, reason in (("t1", "first"), ("t2", "second")):
            cli.main(["regress", "baseline", "set", "--db", path, "--app",
                      "App", "--exp", "Exp", "--trial", trial,
                      "--reason", reason])
        capsys.readouterr()
        assert cli.main(["regress", "baseline", "list", "--db", path,
                         "--app", "App", "--exp", "Exp"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "   App/Exp: t1  (first)", " * App/Exp: t2  (second)"]
        assert cli.main(["regress", "baseline", "list", "--db", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "App/Exp: t2  (second)"]

    def test_unknown_pair_and_reserved_ids_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "perf.db")
        with PerfDMF(path) as repo:
            repo.save_trial("App", "Exp", make_trial("t1"))
        assert cli.main(["regress", "baseline", "list", "--db", path,
                         "--app", "Typo", "--exp", "Exp"]) == 2
        assert "no experiment 'Typo'/'Exp'" in capsys.readouterr().err
        assert cli.main(["lineage", "record", "baseline/App/Exp/1",
                         "--db", path]) == 2
        assert "only baseline promotions" in capsys.readouterr().err


def registry_view(conn, app, exp):
    """What the regress registry answered: the active baseline and the
    (trial, reason) history, read straight from its tables."""
    exp_id = conn.execute(
        "SELECT e.id FROM experiment e JOIN application a "
        "ON e.app_id = a.id WHERE a.name = ? AND e.name = ?",
        (app, exp)).fetchone()[0]
    active = conn.execute(
        "SELECT t.name FROM baseline b JOIN trial t ON b.trial_id = t.id "
        "WHERE b.exp_id = ? AND b.active = 1 ORDER BY b.id DESC LIMIT 1",
        (exp_id,)).fetchone()
    columns = {r[1] for r in conn.execute("PRAGMA table_info(baseline)")}
    reason = "b.reason" if "reason" in columns else "''"
    rows = conn.execute(
        f"SELECT t.name, {reason} FROM baseline b JOIN trial t "
        "ON b.trial_id = t.id WHERE b.exp_id = ? ORDER BY b.id",
        (exp_id,)).fetchall()
    return (active[0] if active else None), [tuple(r) for r in rows]


def store_view(store, app, exp):
    return store.baseline_name(app, exp), history(store, app, exp)


def fill_registry(db, schema):
    """Registry rows as its promotions left them: per pair, every row
    demoted but the newest.  (App, Other)'s active trial was deleted
    since, so its newest remaining row is inactive."""
    for name in ("x1", "x2"):
        db.save_trial("App", "Other", make_trial(name))
    db.connection.executescript(schema)
    has_reason = "reason" in {
        r[1] for r in db.connection.execute("PRAGMA table_info(baseline)")}
    for exp, trial, why, active in (
            ("Exp", "t1", "initial", 0), ("Other", "x1", "old", 0),
            ("Exp", "t2", "20% faster", 0), ("Other", "x2", "new", 1),
            ("Exp", "t3", "auto-promoted", 1)):
        exp_id = db.connection.execute(
            "SELECT id FROM experiment WHERE name = ?", (exp,)).fetchone()[0]
        values = (exp_id, db.trial_id("App", exp, trial), active)
        if has_reason:
            db.connection.execute(
                "INSERT INTO baseline (exp_id, trial_id, active, reason) "
                "VALUES (?, ?, ?, ?)", values + (why,))
        else:
            db.connection.execute(
                "INSERT INTO baseline (exp_id, trial_id, active) "
                "VALUES (?, ?, ?)", values)
    db.delete_trial("App", "Other", "x2")
    db.connection.commit()


class TestSchemaMigration:
    def test_fresh_database_lands_on_current_version(self):
        with PerfDMF() as db:
            assert ensure_lineage_schema(db) == LINEAGE_SCHEMA_VERSION == 2
            # idempotent
            assert ensure_lineage_schema(db) == LINEAGE_SCHEMA_VERSION
            tables = {r[0] for r in db.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            assert not {"baseline", "regress_meta"} & tables

    def test_v1_database_migrates_and_keeps_rows(self, tmp_path):
        self.check_fold(tmp_path, V1_SCHEMA)

    def test_v2_database_migrates_and_keeps_rows(self, tmp_path):
        self.check_fold(tmp_path, V2_SCHEMA)

    def check_fold(self, tmp_path, schema):
        """Opening the file keeps the registry's active baseline and its
        (trial, reason) history."""
        path = tmp_path / "old.db"
        with PerfDMF(path) as old:
            for name in ("t1", "t2", "t3"):
                old.save_trial("App", "Exp", make_trial(name))
            fill_registry(old, schema)
            expected = {exp: registry_view(old.connection, "App", exp)
                        for exp in ("Exp", "Other")}
        assert expected["Exp"][0] == "t3"
        assert expected["Other"] == (
            None, [("x1", "old" if schema is V2_SCHEMA else "")])
        with PerfDMF(path) as db:
            store = LineageStore(db)  # runs the v1 -> v2 fold
            assert store.schema_version == LINEAGE_SCHEMA_VERSION
            assert {exp: store_view(store, "App", exp)
                    for exp in ("Exp", "Other")} == expected
            tables = {r[0] for r in db.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            assert not {"baseline", "regress_meta"} & tables
            # the folded chain accepts new promotions
            store.promote("App", "Exp", "t1", reason="retagged")
            assert history(store, "App", "Exp")[-1] == ("t1", "retagged")
            assert store.baseline_name("App", "Exp") == "t1"

    def test_fold_keeps_existing_lineage(self, tmp_path):
        path = tmp_path / "old.db"
        with PerfDMF(path) as db:
            db.save_trial("App", "Exp", make_trial("t1"))
            # a lineage v1 file with one recorded version
            db.connection.executescript(
                LINEAGE_TABLES.schema + ";"
                "CREATE TABLE lineage_meta (version INTEGER NOT NULL);"
                "INSERT INTO lineage_meta VALUES (1);"
                "INSERT INTO lineage_version (version_id, created_at) "
                "VALUES ('v1', 1.0);")
            db.connection.executescript(V2_SCHEMA)
            db.connection.execute(
                "INSERT INTO baseline (exp_id, trial_id, reason) "
                "VALUES (1, ?, 'good')", (db.trial_id("App", "Exp", "t1"),))
            db.connection.commit()
        with PerfDMF(path) as db:
            store = LineageStore(db)
            assert store.versions() == ["v1", "baseline/App/Exp/1"]
            assert store.tips() == ["v1"]
            assert store_view(store, "App", "Exp") == ("t1", [("t1", "good")])

    def test_future_schema_version_refused(self):
        with PerfDMF() as db:
            db.connection.executescript(V2_SCHEMA)
            db.connection.execute("UPDATE regress_meta SET version = 99")
            with pytest.raises(ProfileError, match="newer than this build"):
                LineageStore(db)
            # the failed fold left the file as it was
            assert db.connection.execute(
                "SELECT version FROM regress_meta").fetchone() == (99,)
