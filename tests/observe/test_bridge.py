"""The dogfood bridge: traced run → PerfDMF trial → analysis ops → sentinel."""

import pytest

from repro import observe
from repro.core.operations.statistics import BasicStatisticsOperation
from repro.core.result import PerformanceResult
from repro.observe.bridge import (
    CPU_TIME,
    SELF_APPLICATION,
    TIME,
    spans_to_trial,
    store_self_profile,
)
from repro.perfdmf import CALLPATH_SEPARATOR, PerfDMF


def _run_traced_pipeline(traced):
    """A miniature analysis run with realistic nesting."""
    with observe.span("cli.run-msa"):
        with observe.span("perfdmf.save_trial"):
            pass
        with observe.span("rules.run"):
            for c in (1, 2):
                with observe.span("rules.cycle", cycle=c):
                    pass
    return traced


class TestSpansToTrial:
    def test_flat_and_callpath_events(self, traced):
        _run_traced_pipeline(traced)
        trial = spans_to_trial(traced.finished(), name="self_1")
        names = trial.event_names()
        assert "cli.run-msa" in names
        assert "rules.cycle" in names
        callpath = CALLPATH_SEPARATOR.join(
            ["cli.run-msa", "rules.run", "rules.cycle"])
        assert callpath in names
        cp_event = trial.events[trial.event_index(callpath)]
        assert cp_event.group == "CALLPATH"

    def test_inclusive_exclusive_identity(self, traced):
        _run_traced_pipeline(traced)
        trial = spans_to_trial(traced.finished(), name="self_1")
        # root inclusive covers the children; exclusive is what's left
        incl = trial.get_inclusive("cli.run-msa", TIME, 0)
        excl = trial.get_exclusive("cli.run-msa", TIME, 0)
        child_incl = (
            trial.get_inclusive("perfdmf.save_trial", TIME, 0)
            + trial.get_inclusive("rules.run", TIME, 0)
        )
        assert incl >= excl >= 0.0
        assert incl == pytest.approx(excl + child_incl, rel=1e-6)

    def test_calls_counted(self, traced):
        _run_traced_pipeline(traced)
        trial = spans_to_trial(traced.finished(), name="self_1")
        assert trial.get_calls("rules.cycle", 0) == 2.0
        assert trial.get_calls("cli.run-msa", 0) == 1.0

    def test_both_metrics_present(self, traced):
        _run_traced_pipeline(traced)
        trial = spans_to_trial(traced.finished(), name="self_1")
        assert set(trial.metric_names()) == {TIME, CPU_TIME}

    def test_recursion_not_double_counted(self, traced):
        with observe.span("recurse"):
            with observe.span("recurse"):
                pass
        trial = spans_to_trial(traced.finished(), name="self_1")
        # flat inclusive counts only the outermost occurrence
        incl = trial.get_inclusive("recurse", TIME, 0)
        outer = [r for r in traced.finished() if r["parent_id"] is None][0]
        assert incl == pytest.approx((outer["end"] - outer["start"]) * 1e6,
                                     rel=1e-6)
        assert trial.get_calls("recurse", 0) == 2.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            spans_to_trial([], name="empty")


class TestDogfoodLoop:
    def test_store_and_reanalyze(self, traced):
        """The acceptance loop: traced run → PerfDMF → statistics op."""
        _run_traced_pipeline(traced)
        with PerfDMF() as db:
            trial, trial_id = store_self_profile(
                traced, db, experiment="run-msa")
            assert trial_id > 0
            assert db.trials(SELF_APPLICATION, "run-msa") == ["run_0001"]
            loaded = db.load_trial(SELF_APPLICATION, "run-msa", "run_0001")
        assert loaded.metadata["source"] == "repro.observe"
        # the existing statistics operation runs on the analyzer's profile
        stats = BasicStatisticsOperation(PerformanceResult(loaded))
        mean = stats.mean()
        assert mean.has_metric(TIME)
        assert set(mean.events) == set(trial.event_names())

    def test_sequential_names_feed_the_sentinel(self, traced):
        from repro.lineage import LineageStore
        from repro.regress import check

        _run_traced_pipeline(traced)
        with PerfDMF() as db:
            store_self_profile(traced, db, experiment="run-msa")
            traced.reset()
            _run_traced_pipeline(traced)
            store_self_profile(traced, db, experiment="run-msa")
            assert db.trials(SELF_APPLICATION, "run-msa") == [
                "run_0001", "run_0002"]
            LineageStore(db).promote(
                SELF_APPLICATION, "run-msa", "run_0001", reason="test")
            outcome = check(db, SELF_APPLICATION, "run-msa", diagnose=False)
        # run-to-run jitter may or may not trip the gate; what matters is
        # the sentinel consumed the self-profile end to end
        assert outcome.report.candidate_trial == "run_0002"
        assert outcome.verdict.value in ("ok", "improved", "regressed")

    def test_delete_never_makes_the_next_profile_overwrite(self, traced):
        from repro.perfdmf import ProfileError

        _run_traced_pipeline(traced)
        with PerfDMF() as db:
            for _ in range(3):
                store_self_profile(traced, db, experiment="run-msa")
            newest = (db.trial_id(SELF_APPLICATION, "run-msa", "run_0003"),
                      db.content_hash(SELF_APPLICATION, "run-msa", "run_0003"))
            db.delete_trial(SELF_APPLICATION, "run-msa", "run_0001")
            trial, _ = store_self_profile(traced, db, experiment="run-msa")
            assert trial.name == "run_0004"
            assert (db.trial_id(SELF_APPLICATION, "run-msa", "run_0003"),
                    db.content_hash(SELF_APPLICATION, "run-msa",
                                    "run_0003")) == newest
            # an explicit name that is taken raises instead of replacing
            with pytest.raises(ProfileError):
                store_self_profile(traced, db, experiment="run-msa",
                                   name="run_0003")
