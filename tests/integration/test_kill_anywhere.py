"""Kill anywhere: every store survives a kill at any commit boundary.

Each scenario runs one operation in a child process that dies
(``os._exit``: no cleanup, no rollback) just before its k-th write
transaction commits, for every k until the operation completes
unkilled.  The fault is injected by wrapping ``PerfDMF._transaction``,
the one place every repository write commits.  After each kill the file
must reopen consistent, and rerunning the operation must end where a run
that was never killed ends.
"""

import multiprocessing
import os
import traceback
from contextlib import contextmanager

import numpy as np

from repro.experiments.rigor import RigorPolicy
from repro.lineage import LineageStore, PerfBisector, TrialRef
from repro.perfdmf import PerfDMF, TrialBuilder
from repro.regress import BaselineRegistry, watch
from repro.serve.handlers import JobContext, run_trial_job

KILLED = 87


def _die_before_commit(op, path, k):
    remaining = [k]
    real = PerfDMF._transaction

    @contextmanager
    def dying(self, begin="BEGIN IMMEDIATE"):
        with real(self, begin):
            yield
            if begin != "BEGIN":
                remaining[0] -= 1
                if remaining[0] == 0:
                    os._exit(KILLED)

    PerfDMF._transaction = dying
    try:
        op(path)
    except BaseException:
        traceback.print_exc()
        os._exit(1)


def run_killed(path, op, k) -> bool:
    """Run ``op(path)`` in a child killed just before its k-th write
    commit.  Returns whether the kill happened (False: ``op`` finished
    with fewer than k commits)."""
    child = multiprocessing.get_context("spawn").Process(
        target=_die_before_commit, args=(op, path, k))
    child.start()
    child.join(timeout=120)
    assert not child.is_alive(), "child hung"
    assert child.exitcode in (0, KILLED), f"child exit code {child.exitcode}"
    return child.exitcode == KILLED


def assert_consistent(path):
    with PerfDMF(path) as db:
        conn = db.connection
        assert conn.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        assert conn.execute("PRAGMA foreign_key_check").fetchall() == []


def kill_everywhere(tmp_path, setup, op, result):
    """Kill ``op`` at each commit in turn; rerun it; compare ``result``."""
    clean = tmp_path / "clean.db"
    setup(clean)
    op(clean)
    expected = result(clean)
    k = 0
    while True:
        k += 1
        path = tmp_path / f"killed_{k}.db"
        setup(path)
        if not run_killed(path, op, k):
            break
        assert_consistent(path)
        op(path)
        assert result(path) == expected, f"killed before commit {k}"
    assert k > 2, "the operation should commit more than once"


def make_trial(name, scale=1.0):
    exc = np.array([[4.0, 4.0], [3.0, 3.0]]) * scale
    return (
        TrialBuilder(name, {"threads": 2})
        .with_events(["main", "loop"])
        .with_threads(2)
        .with_metric("TIME", exc, exc * 2)
        .with_calls(np.ones_like(exc), np.zeros_like(exc))
        .build()
    )


# -- baseline promotion: a v1 regress file (baseline t1, no reason column
# yet), then a watch that migrates it and auto-promotes two successive
# improvements.

def baseline_setup(path):
    with PerfDMF(path) as db:
        for i, name in enumerate(("t1", "t2", "t3")):
            db.save_trial("App", "Exp", make_trial(name, 0.5 ** i))
        db.connection.executescript(f"""
            CREATE TABLE regress_meta (version INTEGER NOT NULL);
            INSERT INTO regress_meta VALUES (1);
            CREATE TABLE baseline (
                id INTEGER PRIMARY KEY,
                exp_id INTEGER NOT NULL
                    REFERENCES experiment(id) ON DELETE CASCADE,
                trial_id INTEGER NOT NULL
                    REFERENCES trial(id) ON DELETE CASCADE,
                active INTEGER NOT NULL DEFAULT 1);
            INSERT INTO baseline (exp_id, trial_id)
                VALUES (1, {db.trial_id("App", "Exp", "t1")});
        """)


def baseline_op(path):
    with PerfDMF(path) as db:
        watch(db, "App", "Exp", auto_promote=True)


def baseline_result(path):
    with PerfDMF(path) as db:
        return BaselineRegistry(db).history("App", "Exp")


def test_baseline_promotion(tmp_path):
    kill_everywhere(tmp_path, baseline_setup, baseline_op, baseline_result)


# -- lineage record: what `repro-perf lineage record` does, record then
# attach.

def record_setup(path):
    with PerfDMF(path) as db:
        for name in ("t1", "t2"):
            db.save_trial("App", "Exp", make_trial(name))


def record_op(path):
    with PerfDMF(path) as db:
        store = LineageStore(db)
        store.record("v1", timestamp=1.0)
        store.record("v2", parents=["v1"], timestamp=2.0,
                     annotations={"branch": "main"})
        store.attach_trials("v2", [TrialRef("App", "Exp", "t1"),
                                   TrialRef("App", "Exp", "t2", "baseline")])


def record_result(path):
    with PerfDMF(path) as db:
        store = LineageStore(db)
        return [store.get(v).to_dict() for v in store.versions()]


def test_lineage_record(tmp_path):
    kill_everywhere(tmp_path, record_setup, record_op, record_result)


# -- bisect banking: every probe synthesizes (a trial save per rerun) and
# then banks its reruns; a kill between the saves and the bank, or after
# some probes banked, must not change what the rerun finds.

class InProcessClient:
    """Runs ``run-trial`` jobs synchronously against one repository."""

    def __init__(self, db):
        self.db = db
        self.results = []

    def submit_many(self, jobs):
        out = []
        for job in jobs:
            self.results.append(
                run_trial_job(JobContext(db=self.db), **job["params"]))
            out.append({"id": len(self.results) - 1})
        return out

    def wait(self, job_id, timeout=None):
        return {"status": "done", "result": self.results[job_id]}


def bisect_setup(path):
    with PerfDMF(path) as db:
        store = LineageStore(db)
        for i in range(5):
            store.record(f"v{i}", parents=[f"v{i - 1}"] if i else [],
                         timestamp=float(i), annotations={
                             "factors": {"scale": 2.0 if i >= 3 else 1.0}})


def bisect_op(path):
    with PerfDMF(path) as db:
        found = PerfBisector(LineageStore(db), client=InProcessClient(db),
                             rigor=RigorPolicy(min_runs=2, max_runs=3),
                             ).bisect("v0", "v4")
        assert found.first_bad == "v3"


def bisect_result(path):
    with PerfDMF(path) as db:
        store = LineageStore(db)
        banked = {v: store.get(v).to_dict()["trials"]
                  for v in store.versions()}
        found = PerfBisector(store).bisect("v0", "v4")
        return banked, found.first_bad, [
            (p.version, p.verdict, p.runs, p.trial) for p in found.probes]


def test_bisect_banking(tmp_path):
    kill_everywhere(tmp_path, bisect_setup, bisect_op, bisect_result)
