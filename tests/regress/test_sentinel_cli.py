"""Sentinel driver (check / pipeline gate) and the CLI verbs."""

import numpy as np
import pytest

from repro import cli
from repro.lineage import LineageStore
from repro.perfdmf import PerfDMF, ProfileError, TrialBuilder
from repro.regress import Verdict, check, perturb_trial
from repro.workflows import regression_gate


def make_trial(name, scale=1.0, events=("main", "hot_loop")):
    rng = np.random.default_rng(11)
    exc = rng.uniform(50, 100, size=(len(events), 4)) * scale
    return (
        TrialBuilder(name, {"threads": 4})
        .with_events(list(events))
        .with_threads(4)
        .with_metric("TIME", exc, exc * 1.3, units="usec")
        .with_calls(np.ones_like(exc), np.zeros_like(exc))
        .build()
    )


@pytest.fixture
def db():
    with PerfDMF() as repo:
        yield repo


class TestCheck:
    def test_requires_baseline(self, db):
        db.save_trial("A", "E", make_trial("t1"))
        with pytest.raises(ProfileError, match="no baseline"):
            check(db, "A", "E")

    def test_requires_trials(self, db):
        with pytest.raises(ProfileError, match="no trials"):
            check(db, "A", "E")

    def test_self_check_is_ok_with_exit_zero(self, db):
        db.save_trial("A", "E", make_trial("t1"))
        LineageStore(db).promote("A", "E", "t1")
        outcome = check(db, "A", "E")
        assert outcome.verdict is Verdict.OK
        assert outcome.exit_code == 0

    def test_regression_exits_nonzero(self, db):
        base = make_trial("t1")
        db.save_trial("A", "E", base)
        db.save_trial("A", "E", perturb_trial(base, events=["hot_loop"],
                                              factor=2.0, name="t2"))
        LineageStore(db).promote("A", "E", "t1")
        outcome = check(db, "A", "E")  # newest trial = t2 by default
        assert outcome.verdict is Verdict.REGRESSED
        assert outcome.exit_code == 1
        assert outcome.report.top_offenders()[0].event == "hot_loop"
        assert outcome.recommendations  # chained rules fired

    def test_auto_promote_on_improvement(self, db):
        base = make_trial("t1")
        db.save_trial("A", "E", base)
        db.save_trial("A", "E", perturb_trial(base, factor=0.5, name="t2"))
        store = LineageStore(db)
        store.promote("A", "E", "t1")
        outcome = check(db, "A", "E", auto_promote=True)
        assert outcome.verdict is Verdict.IMPROVED
        assert outcome.promoted
        assert store.baseline_name("A", "E") == "t2"
        tip = store.baseline_chain("A", "E")[-1]
        assert tip.parents == ("baseline/A/E/1",)
        assert "auto-promoted" in tip.annotations["reason"]

    def test_improvement_not_promoted_by_default(self, db):
        base = make_trial("t1")
        db.save_trial("A", "E", base)
        db.save_trial("A", "E", perturb_trial(base, factor=0.5, name="t2"))
        store = LineageStore(db)
        store.promote("A", "E", "t1")
        outcome = check(db, "A", "E")
        assert outcome.verdict is Verdict.IMPROVED and not outcome.promoted
        assert store.baseline_name("A", "E") == "t1"


class TestPipelineGate:
    def test_first_trial_creates_baseline(self, db):
        result = regression_gate(make_trial("t1"), repository=db,
                                 application="A", experiment="E")
        assert result.verdict == "baseline-created"
        assert result.exit_code == 0
        assert LineageStore(db).baseline_name("A", "E") == "t1"

    def test_gate_fails_on_regression(self, db):
        base = make_trial("t1")
        regression_gate(base, repository=db, application="A", experiment="E")
        bad = perturb_trial(base, events=["hot_loop"], factor=2.0, name="t2")
        result = regression_gate(bad, repository=db,
                                 application="A", experiment="E")
        assert result.verdict == "regressed"
        assert result.exit_code == 1
        assert result.recommendations

    def test_gate_ratchets_forward(self, db):
        base = make_trial("t1")
        regression_gate(base, repository=db, application="A", experiment="E")
        good = perturb_trial(base, factor=0.5, name="t2")
        result = regression_gate(good, repository=db,
                                 application="A", experiment="E")
        assert result.verdict == "improved" and result.promoted
        assert LineageStore(db).baseline_name("A", "E") == "t2"


@pytest.fixture
def db_path(tmp_path):
    path = tmp_path / "perf.db"
    base = make_trial("t1")
    with PerfDMF(path) as repo:
        repo.save_trial("A", "E", base)
        repo.save_trial("A", "E", perturb_trial(base, events=["hot_loop"],
                                                factor=2.0, name="t2"))
    return str(path)


class TestCLI:
    def test_baseline_set_and_list(self, db_path, capsys):
        assert cli.main(["regress", "baseline", "set", "--db", db_path,
                         "--app", "A", "--exp", "E", "--trial", "t1",
                         "--reason", "first good run"]) == 0
        assert cli.main(["regress", "baseline", "list", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "first good run" in out

    def test_check_flags_regression_with_exit_one(self, db_path, capsys):
        cli.main(["regress", "baseline", "set", "--db", db_path,
                  "--app", "A", "--exp", "E", "--trial", "t1"])
        code = cli.main(["regress", "check", "--db", db_path,
                         "--app", "A", "--exp", "E"])
        out = capsys.readouterr().out
        assert code == 1
        assert "regressed" in out and "hot_loop" in out

    def test_check_passes_against_itself(self, db_path, capsys):
        cli.main(["regress", "baseline", "set", "--db", db_path,
                  "--app", "A", "--exp", "E", "--trial", "t1"])
        code = cli.main(["regress", "check", "--db", db_path,
                         "--app", "A", "--exp", "E", "--trial", "t1"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_check_threshold_override(self, db_path, capsys):
        cli.main(["regress", "baseline", "set", "--db", db_path,
                  "--app", "A", "--exp", "E", "--trial", "t1"])
        # a 10x threshold lets the 2x regression through the event gate,
        # but the diffuse total-change gate still trips: raise alpha too
        code = cli.main(["regress", "check", "--db", db_path,
                         "--app", "A", "--exp", "E",
                         "--threshold", "10.0"])
        capsys.readouterr()
        assert code == 1  # total gate still catches the slowdown

    def test_report_always_exits_zero(self, db_path, capsys):
        cli.main(["regress", "baseline", "set", "--db", db_path,
                  "--app", "A", "--exp", "E", "--trial", "t1"])
        code = cli.main(["regress", "report", "--db", db_path,
                         "--app", "A", "--exp", "E"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hot_loop" in out  # explanation chains included
