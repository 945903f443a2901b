"""LineageStore: round trips, parent walks, schema migration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.lineage import (
    LINEAGE_SCHEMA_VERSION,
    LineageStore,
    ensure_lineage_schema,
)
from repro.perfdmf import PerfDMF, ProfileError, TrialBuilder


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


class TestSchema:
    def test_migration_from_empty_db(self):
        # A store opened on a repository that has never seen lineage
        # creates its tables and lands on the current version.
        with PerfDMF() as repo:
            assert ensure_lineage_schema(repo) == LINEAGE_SCHEMA_VERSION
            store = LineageStore(repo)
            assert store.schema_version == LINEAGE_SCHEMA_VERSION
            assert len(store) == 0
            assert store.versions() == []
            assert store.tips() == []
            assert store.history() == []

    def test_reopen_is_idempotent(self, db):
        LineageStore(db).record("v1")
        again = LineageStore(db)
        assert again.schema_version == LINEAGE_SCHEMA_VERSION
        assert again.versions() == ["v1"]

    def test_newer_schema_rejected(self, db):
        LineageStore(db)
        db.connection.execute("UPDATE lineage_meta SET version = ?",
                              (LINEAGE_SCHEMA_VERSION + 1,))
        db.connection.commit()
        with pytest.raises(ProfileError, match="newer"):
            LineageStore(db)


class TestRecord:
    def test_round_trip(self, db):
        store = LineageStore(db)
        store.record("root", annotations={"branch": "main"},
                     timestamp=123.0)
        rec = store.get("root")
        assert rec.version_id == "root"
        assert rec.parents == ()
        assert rec.annotations == {"branch": "main"}
        assert rec.created_at == 123.0
        assert rec.code_version
        assert rec.rulebase_version

    def test_version_overrides(self, db):
        store = LineageStore(db)
        store.record("v", code_version="9.9.9", rulebase_version="cafe")
        rec = store.get("v")
        assert rec.code_version == "9.9.9"
        assert rec.rulebase_version == "cafe"

    def test_rerecord_merges_annotations(self, db):
        store = LineageStore(db)
        store.record("v", annotations={"a": 1})
        store.record("v", annotations={"b": 2})
        assert store.get("v").annotations == {"a": 1, "b": 2}
        assert len(store) == 1

    def test_unknown_parent_rejected(self, db):
        store = LineageStore(db)
        with pytest.raises(ProfileError, match="parent"):
            store.record("child", parents=["ghost"])

    def test_empty_version_id_rejected(self, db):
        with pytest.raises(ProfileError, match="non-empty"):
            LineageStore(db).record("")

    def test_annotate_merges(self, db):
        store = LineageStore(db)
        store.record("v", annotations={"a": 1})
        store.annotate("v", b=2, a=3)
        assert store.get("v").annotations == {"a": 3, "b": 2}

    def test_unknown_version_errors(self, db):
        store = LineageStore(db)
        with pytest.raises(ProfileError, match="unknown version"):
            store.get("nope")
        with pytest.raises(ProfileError, match="unknown version"):
            store.annotate("nope", a=1)


class TestTrials:
    def test_attach_and_roles(self, db):
        store = LineageStore(db)
        store.record("v")
        store.attach_trial("v", "App", "Exp", "t1")
        store.attach_trial("v", "App", "Exp", "t2", role="baseline")
        rec = store.get("v")
        assert [t.trial for t in rec.trials] == ["t1", "t2"]
        assert [t.trial for t in rec.baselines] == ["t2"]
        assert store.trials_for("v", role="trial")[0].trial == "t1"

    def test_attach_is_idempotent(self, db):
        store = LineageStore(db)
        store.record("v")
        store.attach_trial("v", "App", "Exp", "t1")
        store.attach_trial("v", "App", "Exp", "t1")
        assert len(store.get("v").trials) == 1

    def test_bad_role_rejected(self, db):
        store = LineageStore(db)
        store.record("v")
        with pytest.raises(ProfileError, match="role"):
            store.attach_trial("v", "App", "Exp", "t1", role="golden")

    def test_missing_trial_rejected(self, db):
        store = LineageStore(db)
        store.record("v")
        with pytest.raises(ProfileError):
            store.attach_trial("v", "App", "Exp", "ghost")


class TestWalks:
    def build_linear(self, db, n=5):
        store = LineageStore(db)
        parent = None
        for i in range(n):
            vid = f"v{i}"
            store.record(vid, parents=[parent] if parent else [])
            parent = vid
        return store

    def test_linear_history_and_path(self, db):
        store = self.build_linear(db)
        assert store.tips() == ["v4"]
        assert [r.version_id for r in store.history()] == \
            ["v4", "v3", "v2", "v1", "v0"]
        assert [r.version_id for r in store.history(limit=2)] == ["v4", "v3"]
        assert store.path("v1", "v4") == ["v1", "v2", "v3", "v4"]

    def test_path_rejects_non_ancestor(self, db):
        store = self.build_linear(db)
        with pytest.raises(ProfileError, match="not an ancestor"):
            store.path("v4", "v1")

    def test_dag_history_covers_both_parents(self, db):
        store = self.build_linear(db, n=3)  # v0 - v1 - v2
        store.record("side", parents=["v0"])
        store.record("merge", parents=["v2", "side"])
        hist = [r.version_id for r in store.history("merge")]
        assert hist[0] == "merge"
        assert set(hist) == {"merge", "v2", "side", "v1", "v0"}

    def test_dag_path_exists_through_either_parent(self, db):
        store = self.build_linear(db, n=3)
        store.record("side", parents=["v0"])
        store.record("merge", parents=["v2", "side"])
        path = store.path("v0", "merge")
        assert path[0] == "v0" and path[-1] == "merge"
        # every step is a real parent link
        for a, b in zip(path, path[1:]):
            assert a in store.get(b).parents


class TestCycles:
    def snapshot(self, db):
        return [db.connection.execute(f"SELECT * FROM {table}").fetchall()
                for table in ("lineage_version", "lineage_parent")]

    def test_self_parent_rejected(self, db):
        store = LineageStore(db)
        with pytest.raises(ProfileError, match="cycle"):
            store.record("v1", parents=["v1"])
        assert len(store) == 0
        store.record("v1")
        before = self.snapshot(db)
        with pytest.raises(ProfileError, match="cycle"):
            store.record("v1", parents=["v1"])
        assert self.snapshot(db) == before
        assert store.tips() == ["v1"]

    def test_descendant_parent_rejected(self, db):
        store = LineageStore(db)
        store.record("v1")
        store.record("v2", parents=["v1"])
        store.record("v3", parents=["v2"])
        before = self.snapshot(db)
        for version, parent in (("v1", "v2"), ("v1", "v3"), ("v2", "v3")):
            with pytest.raises(ProfileError, match="cycle"):
                store.record(version, parents=[parent],
                             annotations={"changed": True})
        assert self.snapshot(db) == before
        assert [r.version_id for r in store.history("v3")] == \
            ["v3", "v2", "v1"]

    def test_cli_cycle_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "perf.db")
        assert cli.main(["lineage", "record", "v1", "--db", path]) == 0
        assert cli.main(["lineage", "record", "v2", "--parent", "v1",
                         "--db", path]) == 0
        assert cli.main(["lineage", "record", "v1", "--parent", "v2",
                         "--db", path]) == 2
        assert "cycle" in capsys.readouterr().err
        assert cli.main(["lineage", "log", "--tip", "v2", "--db", path,
                         "--json"]) == 0


class TestHistoryLimit:
    def build(self, db, shape):
        store = LineageStore(db)
        store.record("v0")
        store.record("v1", parents=["v0"])
        store.record("v2", parents=["v1"])
        if shape == "merge":
            store.record("side", parents=["v0"])
            store.record("v3", parents=["v2", "side"])
        else:
            store.record("v3", parents=["v2"])
        return store

    @pytest.mark.parametrize("shape", ["linear", "merge"])
    def test_limit_below_one_rejected(self, db, shape):
        store = self.build(db, shape)
        for limit in (0, -1):
            with pytest.raises(ProfileError, match="at least 1"):
                store.history("v3", limit=limit)
        assert [r.version_id for r in store.history("v3", limit=1)] == \
            ["v3"]
        assert [r.version_id for r in store.history("v3", limit=2)] == \
            ["v3", "v2"]

    def test_cli_limit_zero_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "perf.db")
        cli.main(["lineage", "record", "v1", "--db", path])
        cli.main(["lineage", "record", "v2", "--parent", "v1", "--db", path])
        capsys.readouterr()
        assert cli.main(["lineage", "log", "--limit", "0", "--db", path]) \
            == 2
        assert "limit must be at least 1" in capsys.readouterr().err


@st.composite
def histories(draw):
    """A random parent DAG as a list of (version, parent-indices)."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = []
    for i in range(n):
        if i == 0:
            edges.append([])
        else:
            k = draw(st.integers(min_value=1, max_value=min(i, 3)))
            edges.append(sorted(draw(st.sets(
                st.integers(min_value=0, max_value=i - 1),
                min_size=1, max_size=k))))
    return edges


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(histories())
    def test_record_round_trips_any_dag(self, edges):
        with PerfDMF() as repo:
            store = LineageStore(repo)
            for i, parents in enumerate(edges):
                store.record(f"v{i}", parents=[f"v{p}" for p in parents],
                             annotations={"i": i})
            assert len(store) == len(edges)
            for i, parents in enumerate(edges):
                rec = store.get(f"v{i}")
                assert set(rec.parents) == {f"v{p}" for p in parents}
                assert rec.annotations == {"i": i}
            # every history walk starts at its tip and stays within the
            # recorded versions, with no duplicates
            for tip in store.tips():
                hist = [r.version_id for r in store.history(tip)]
                assert hist[0] == tip
                assert len(hist) == len(set(hist))
                assert set(hist) <= set(store.versions())

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.floats(allow_nan=False,
                                           allow_infinity=False),
                  st.text(max_size=16), st.booleans()),
        max_size=5,
    ))
    def test_annotations_round_trip_json_values(self, annotations):
        with PerfDMF() as repo:
            store = LineageStore(repo)
            store.record("v", annotations=annotations)
            assert store.get("v").annotations == annotations
