"""Tests for the SQLite PerfDMF repository."""

import numpy as np
import pytest

from repro.perfdmf import PerfDMF, ProfileError, TrialBuilder


def make_trial(name="1_8", meta=None):
    exc = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    return (
        TrialBuilder(name, meta or {"schedule": "dynamic,1", "threads": 3})
        .with_events(["main", "loop"])
        .with_threads(3, node_of=lambda i: i // 2)
        .with_metric("TIME", exc, exc * 2, units="usec")
        .with_metric("CPU_CYCLES", exc * 1e6, exc * 2e6)
        .with_calls(np.full((2, 3), 7.0), np.full((2, 3), 2.0))
        .build()
    )


class TestSaveLoad:
    def test_roundtrip_values(self):
        with PerfDMF() as db:
            db.save_trial("App", "Exp", make_trial())
            loaded = db.load_trial("App", "Exp", "1_8")
        orig = make_trial()
        assert loaded.event_names() == orig.event_names()
        assert [str(t) for t in loaded.threads] == [str(t) for t in orig.threads]
        assert loaded.metric_names() == orig.metric_names()
        for metric in orig.metric_names():
            np.testing.assert_allclose(
                loaded.exclusive_array(metric), orig.exclusive_array(metric)
            )
            np.testing.assert_allclose(
                loaded.inclusive_array(metric), orig.inclusive_array(metric)
            )
        np.testing.assert_allclose(loaded.calls_array(), orig.calls_array())
        np.testing.assert_allclose(loaded.subroutines_array(), orig.subroutines_array())

    def test_metadata_roundtrip(self):
        with PerfDMF() as db:
            db.save_trial("App", "Exp", make_trial())
            assert db.trial_metadata("App", "Exp", "1_8")["schedule"] == "dynamic,1"
            assert db.load_trial("App", "Exp", "1_8").metadata["threads"] == 3

    def test_missing_trial_raises(self):
        with PerfDMF() as db:
            with pytest.raises(ProfileError, match="no trial"):
                db.load_trial("App", "Exp", "nope")

    def test_duplicate_save_requires_replace(self):
        with PerfDMF() as db:
            db.save_trial("App", "Exp", make_trial())
            with pytest.raises(ProfileError, match="already exists"):
                db.save_trial("App", "Exp", make_trial())
            t2 = make_trial(meta={"v": 2})
            db.save_trial("App", "Exp", t2, replace=True)
            assert db.trial_metadata("App", "Exp", "1_8")["v"] == 2

    def test_invalid_trial_rejected_on_save(self):
        bad = (TrialBuilder("bad").with_events(["e"]).with_threads(1)
               .with_metric("TIME", [[10.0]], [[1.0]]).build(validate=False))
        with PerfDMF() as db:
            with pytest.raises(ProfileError):
                db.save_trial("App", "Exp", bad)

    def test_persistence_to_file(self, tmp_path):
        path = tmp_path / "perf.db"
        with PerfDMF(path) as db:
            db.save_trial("App", "Exp", make_trial())
        with PerfDMF(path) as db2:
            assert db2.trials("App", "Exp") == ["1_8"]
            loaded = db2.load_trial("App", "Exp", "1_8")
            assert loaded.get_exclusive("loop", "TIME", 2) == 6.0


class TestListing:
    def test_hierarchy_listing(self):
        with PerfDMF() as db:
            db.save_trial("A1", "E1", make_trial("t1"))
            db.save_trial("A1", "E1", make_trial("t2"))
            db.save_trial("A1", "E2", make_trial("t1"))
            db.save_trial("A2", "E1", make_trial("t1"))
            assert db.applications() == ["A1", "A2"]
            assert db.experiments("A1") == ["E1", "E2"]
            assert db.trials("A1", "E1") == ["t1", "t2"]
            assert db.trials("A9", "E1") == []

    def test_delete_trial(self):
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial("t1"))
            db.save_trial("A", "E", make_trial("t2"))
            db.delete_trial("A", "E", "t1")
            assert db.trials("A", "E") == ["t2"]
            with pytest.raises(ProfileError):
                db.delete_trial("A", "E", "t1")


class TestUtilities:
    def test_facade_roundtrip(self):
        from repro.perfdmf import PerfDMF, Utilities, set_default_repository

        repo = PerfDMF()
        set_default_repository(repo)
        try:
            Utilities.saveTrial("Fluid Dynamic", "rib 45", make_trial("1_8"))
            t = Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8")
            assert t.name == "1_8"
            assert Utilities.listApplications() == ["Fluid Dynamic"]
            assert Utilities.listExperiments("Fluid Dynamic") == ["rib 45"]
            assert Utilities.listTrials("Fluid Dynamic", "rib 45") == ["1_8"]
            assert Utilities.getMetadata("Fluid Dynamic", "rib 45", "1_8")["threads"] == 3
            assert len(Utilities.getTrials("Fluid Dynamic", "rib 45")) == 1
        finally:
            set_default_repository(None)
