"""Baseline registry: promotion history, cascades, schema migration."""

import numpy as np
import pytest

from repro.perfdmf import PerfDMF, ProfileError, TrialBuilder
from repro.regress import (
    REGRESS_SCHEMA_VERSION,
    BaselineRegistry,
    ensure_regress_schema,
)

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


def make_trial(name):
    exc = np.array([[1.0, 2.0], [3.0, 4.0]])
    return (
        TrialBuilder(name, {"threads": 2})
        .with_events(["main", "loop"])
        .with_threads(2)
        .with_metric("TIME", exc, exc * 2)
        .with_calls(np.ones_like(exc), np.zeros_like(exc))
        .build()
    )


@pytest.fixture
def db():
    with PerfDMF() as repo:
        for name in ("t1", "t2", "t3"):
            repo.save_trial("App", "Exp", make_trial(name))
        yield repo


class TestRegistry:
    def test_no_baseline_initially(self, db):
        reg = BaselineRegistry(db)
        assert reg.baseline_name("App", "Exp") is None
        with pytest.raises(ProfileError, match="no baseline"):
            reg.load_baseline("App", "Exp")

    def test_set_and_load(self, db):
        reg = BaselineRegistry(db)
        reg.set_baseline("App", "Exp", "t1", reason="first good run")
        assert reg.baseline_name("App", "Exp") == "t1"
        assert reg.load_baseline("App", "Exp").name == "t1"

    def test_promotion_keeps_history(self, db):
        reg = BaselineRegistry(db)
        reg.set_baseline("App", "Exp", "t1", reason="initial")
        reg.set_baseline("App", "Exp", "t2", reason="20% faster")
        history = reg.history("App", "Exp")
        assert [(r.trial, r.active) for r in history] == [
            ("t1", False),
            ("t2", True),
        ]
        assert history[1].reason == "20% faster"
        assert reg.baseline_name("App", "Exp") == "t2"

    def test_list_baselines_across_experiments(self, db):
        db.save_trial("App", "Other", make_trial("x1"))
        reg = BaselineRegistry(db)
        reg.set_baseline("App", "Exp", "t1")
        reg.set_baseline("App", "Other", "x1")
        listed = {(r.experiment, r.trial) for r in reg.list_baselines()}
        assert listed == {("Exp", "t1"), ("Other", "x1")}

    def test_unknown_experiment_or_trial_raises(self, db):
        reg = BaselineRegistry(db)
        with pytest.raises(ProfileError, match="no experiment"):
            reg.set_baseline("App", "Nope", "t1")
        with pytest.raises(ProfileError):
            reg.set_baseline("App", "Exp", "missing-trial")

    def test_baseline_cascades_with_deleted_trial(self, db):
        reg = BaselineRegistry(db)
        reg.set_baseline("App", "Exp", "t1")
        db.delete_trial("App", "Exp", "t1")
        assert reg.baseline_name("App", "Exp") is None

    def test_trial_replacement_drops_stale_baseline(self, db):
        # save_trial(replace=True) deletes + reinserts the trial row, so a
        # baseline tag must not silently survive pointing at dead data
        reg = BaselineRegistry(db)
        reg.set_baseline("App", "Exp", "t1")
        db.save_trial("App", "Exp", make_trial("t1"), replace=True)
        assert reg.baseline_name("App", "Exp") is None


class TestSchemaMigration:
    def _create_v1(self, db):
        db.connection.executescript(V1_SCHEMA)

    def test_fresh_database_lands_on_current_version(self):
        with PerfDMF() as db:
            assert ensure_regress_schema(db) == REGRESS_SCHEMA_VERSION
            # idempotent
            assert ensure_regress_schema(db) == REGRESS_SCHEMA_VERSION

    def test_v1_database_migrates_and_keeps_rows(self, tmp_path):
        path = tmp_path / "old.db"
        with PerfDMF(path) as db:
            db.save_trial("App", "Exp", make_trial("t1"))
            self._create_v1(db)
            # a v1 baseline row: no reason column existed yet
            exp_id = db.connection.execute(
                "SELECT id FROM experiment").fetchone()[0]
            trial_id = db.trial_id("App", "Exp", "t1")
            db.connection.execute(
                "INSERT INTO baseline (exp_id, trial_id, active) VALUES (?, ?, 1)",
                (exp_id, trial_id),
            )
        with PerfDMF(path) as db:
            reg = BaselineRegistry(db)  # triggers the v1 -> v2 migration
            assert reg.schema_version == REGRESS_SCHEMA_VERSION
            assert db.connection.execute(
                "SELECT version FROM regress_meta").fetchone()[0] == 2
            # the old row survived and reads back with a default reason
            assert reg.baseline_name("App", "Exp") == "t1"
            assert reg.history("App", "Exp")[0].reason == ""
            # the migrated table accepts v2 writes
            reg.set_baseline("App", "Exp", "t1", reason="retagged")
            assert reg.history("App", "Exp")[-1].reason == "retagged"

    def test_future_schema_version_refused(self):
        with PerfDMF() as db:
            ensure_regress_schema(db)
            db.connection.execute("UPDATE regress_meta SET version = 99")
            with pytest.raises(ProfileError, match="newer than this build"):
                BaselineRegistry(db)
