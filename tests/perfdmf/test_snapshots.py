"""Interval sub-trial storage: snapshots as trials under a derived
experiment, usable by every existing consumer."""

import numpy as np
import pytest

from repro.machine import CounterVector, uniform_machine
from repro.machine import counters as C
from repro.perfdmf import (
    PerfDMF,
    interval_experiment,
    load_interval_trials,
    store_interval_trials,
)
from repro.runtime import SnapshotProfiler


@pytest.fixture
def snapshots():
    prof = SnapshotProfiler(uniform_machine(2))
    for cpu in (0, 1):
        prof.enter(cpu, "main")
    for i in range(3):
        for cpu in (0, 1):
            prof.enter(cpu, "kernel")
            prof.charge(cpu, CounterVector({C.TIME: 100.0 * (i + cpu + 1)}))
            prof.exit(cpu, "kernel")
        prof.phase(f"iteration_{i}")
    return prof.snapshots


def test_interval_experiment_name():
    assert interval_experiment("exp", "run1") == "exp/run1@intervals"


def test_store_and_load_roundtrip(tmp_path, snapshots):
    db_path = tmp_path / "perf.db"
    with PerfDMF(db_path) as db:
        ids = store_interval_trials(db, "App", "exp", "run1", snapshots)
        assert len(ids) == 3
        loaded = load_interval_trials(db, "App", "exp", "run1")
    assert [t.name for t in loaded] == [
        "interval_0000", "interval_0001", "interval_0002"
    ]
    for orig, back in zip(snapshots, loaded):
        assert back.metadata["parent_trial"] == "run1"
        assert back.metadata["parent_experiment"] == "exp"
        assert back.metadata["interval"]["label"] == \
            orig.metadata["interval"]["label"]
        assert np.allclose(orig.exclusive_array(C.TIME),
                           back.exclusive_array(C.TIME))


def test_stamping_does_not_mutate_originals(tmp_path, snapshots):
    with PerfDMF(tmp_path / "perf.db") as db:
        store_interval_trials(db, "App", "exp", "run1", snapshots)
    assert all("parent_trial" not in s.metadata for s in snapshots)


def test_interval_trials_work_with_regression_sentinel(tmp_path, snapshots):
    """An individual interval can be baselined and checked like any trial."""
    from repro.lineage import LineageStore

    derived = interval_experiment("exp", "run1")
    with PerfDMF(tmp_path / "perf.db") as db:
        store_interval_trials(db, "App", "exp", "run1", snapshots)
        store = LineageStore(db)
        store.promote("App", derived, "interval_0001",
                      reason="iteration 1 is the steady state")
        assert store.baseline_name("App", derived) == "interval_0001"


def test_retraced_run_replaces_stale_intervals(tmp_path):
    from repro.workflows import trace_application

    with PerfDMF(tmp_path / "perf.db") as db:
        first = trace_application("genidlest", repository=db, version="mpi",
                                  n_procs=4, iterations=4)
        second = trace_application("genidlest", repository=db, version="mpi",
                                   n_procs=4, iterations=2)
        assert first.trial.name == second.trial.name
        loaded = load_interval_trials(db, "GenIDLEST", "traced",
                                      second.trial.name)
    assert [t.name for t in loaded] == ["interval_0000", "interval_0001"]
    for stored, snap in zip(loaded, second.snapshots):
        assert stored.exclusive_array(C.TIME).tobytes() == \
            snap.exclusive_array(C.TIME).tobytes()
