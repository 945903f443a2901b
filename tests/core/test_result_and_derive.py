"""Tests for PerformanceResult and the derive operations."""

import numpy as np
import pytest

from repro.core import AnalysisError, PerformanceResult
from repro.core.script import (
    DeriveMetricOperation,
    ScaleMetricOperation,
    TrialMeanResult,
    TrialResult,
    derive_chain,
)
from repro.perfdmf import Trial, TrialBuilder


def make_trial(name="t"):
    # events: main, loop; threads: 3
    time_exc = np.array([[10.0, 10.0, 10.0], [30.0, 40.0, 50.0]])
    time_inc = np.array([[40.0, 50.0, 60.0], [30.0, 40.0, 50.0]])
    cycles_exc = time_exc * 1500
    cycles_inc = time_inc * 1500
    stalls_exc = cycles_exc * np.array([[0.1], [0.5]])
    stalls_inc = cycles_inc * np.array([[0.4], [0.5]])
    return (
        TrialBuilder(name, {"case": "unit"})
        .with_events(["main", "loop"])
        .with_threads(3)
        .with_metric("TIME", time_exc, time_inc, units="usec")
        .with_metric("CPU_CYCLES", cycles_exc, cycles_inc)
        .with_metric("BACK_END_BUBBLE_ALL", stalls_exc, stalls_inc)
        .with_calls(np.ones((2, 3)))
        .build()
    )


class TestPerformanceResult:
    def test_camelcase_api(self):
        r = TrialResult(make_trial())
        assert r.getEvents() == ["main", "loop"]
        assert "TIME" in r.getMetrics()
        assert r.getThreads() == [0, 1, 2]
        assert r.getExclusive(1, "loop", "TIME") == 40.0
        assert r.getInclusive(2, "main", "TIME") == 60.0
        assert r.getCalls(0, "main") == 1.0
        assert r.getMainEvent() == "main"
        assert r.getName() == "t"

    def test_event_row(self):
        r = TrialResult(make_trial())
        np.testing.assert_allclose(r.event_row("loop", "TIME"), [30, 40, 50])
        np.testing.assert_allclose(
            r.event_row("main", "TIME", inclusive=True), [40, 50, 60]
        )

    def test_empty_trial_rejected(self):
        with pytest.raises(AnalysisError):
            PerformanceResult(Trial("empty"))

    def test_mean_result(self):
        r = TrialMeanResult(make_trial())
        assert r.thread_count == 1
        assert r.event_row("loop", "TIME")[0] == pytest.approx(40.0)
        assert r.event_row("main", "TIME", inclusive=True)[0] == pytest.approx(50.0)


class TestDeriveMetricOperation:
    def test_divide_matches_paper_naming(self):
        r = TrialMeanResult(make_trial())
        op = DeriveMetricOperation(
            r, "BACK_END_BUBBLE_ALL", "CPU_CYCLES", DeriveMetricOperation.DIVIDE
        )
        derived = op.processData().get(0)
        assert op.derived_name == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)"
        assert derived.has_metric(op.derived_name)
        # loop's exclusive stall ratio is 0.5 by construction
        assert derived.event_row("loop", op.derived_name)[0] == pytest.approx(0.5)
        assert derived.event_row("main", op.derived_name, inclusive=True)[0] == pytest.approx(0.4)

    def test_all_four_operations(self):
        r = TrialMeanResult(make_trial())
        for op_sym, expect in [
            (DeriveMetricOperation.ADD, 50.0 * 1500 + 50.0 * 1500 * 0.4),
            (DeriveMetricOperation.SUBTRACT, 50.0 * 1500 * 0.6),
            (DeriveMetricOperation.MULTIPLY, (50.0 * 1500) ** 2 * 0.4),
            (DeriveMetricOperation.DIVIDE, 1 / 0.4),
        ]:
            op = DeriveMetricOperation(r, "CPU_CYCLES", "BACK_END_BUBBLE_ALL", op_sym)
            d = op.processData().get(0)
            got = d.event_row("main", op.derived_name, inclusive=True)[0]
            assert got == pytest.approx(expect), op_sym

    def test_divide_by_zero_yields_zero(self):
        t = (
            TrialBuilder("z")
            .with_events(["e"])
            .with_threads(1)
            .with_metric("A", np.array([[5.0]]))
            .with_metric("B", np.array([[0.0]]))
            .build()
        )
        op = DeriveMetricOperation(
            PerformanceResult(t), "A", "B", DeriveMetricOperation.DIVIDE
        )
        assert op.processData().get(0).event_row("e", "(A / B)")[0] == 0.0

    def test_unknown_metric_rejected(self):
        r = TrialResult(make_trial())
        with pytest.raises(AnalysisError, match="no metric"):
            DeriveMetricOperation(r, "NOPE", "TIME", "/")

    def test_unknown_operation_rejected(self):
        r = TrialResult(make_trial())
        with pytest.raises(AnalysisError, match="unknown derive operation"):
            DeriveMetricOperation(r, "TIME", "TIME", "%")

    def test_input_metrics_carried_through(self):
        r = TrialMeanResult(make_trial())
        d = DeriveMetricOperation(r, "BACK_END_BUBBLE_ALL", "CPU_CYCLES", "/").processData().get(0)
        assert d.has_metric("BACK_END_BUBBLE_ALL") and d.has_metric("CPU_CYCLES")

    def test_deriving_a_metric_the_input_holds_replaces_it(self):
        r = TrialMeanResult(make_trial())
        once = DeriveMetricOperation(r, "TIME", "CPU_CYCLES", "/").processData().get(0)
        twice = DeriveMetricOperation(once, "TIME", "CPU_CYCLES", "/").processData().get(0)
        assert twice.metrics == once.metrics
        np.testing.assert_array_equal(twice.exclusive("(TIME / CPU_CYCLES)"),
                                      once.exclusive("(TIME / CPU_CYCLES)"))


class TestScaleAndChain:
    def test_scale(self):
        r = TrialMeanResult(make_trial())
        op = ScaleMetricOperation(r, "TIME", 2.0)
        d = op.processData().get(0)
        assert d.event_row("loop", op.derived_name)[0] == pytest.approx(80.0)

    def test_derive_chain_weighted_sum(self):
        r = TrialMeanResult(make_trial())
        d = derive_chain(
            r, [("TIME", 3.0), ("CPU_CYCLES", 0.001)], name="combo"
        )
        expect = 40.0 * 3.0 + 40.0 * 1500 * 0.001
        assert d.event_row("loop", "combo")[0] == pytest.approx(expect)

    def test_derive_chain_empty_rejected(self):
        r = TrialMeanResult(make_trial())
        with pytest.raises(AnalysisError):
            derive_chain(r, [], name="x")
        with pytest.raises(AnalysisError):
            derive_chain(r, [("NOPE", 1.0)], name="x")


class TestMetricDescriptionsCarryThrough:
    """Operations keep each source metric's units and derived flag."""

    def test_subsets_and_reductions_keep_units(self):
        from repro.core.script import (
            BasicStatisticsOperation,
            ExtractEventOperation,
            ExtractMetricOperation,
            ExtractRankOperation,
        )

        r = TrialResult(make_trial())
        outputs = [
            ExtractEventOperation(r, ["loop"]).process_data()[0],
            ExtractMetricOperation(r, ["TIME"]).process_data()[0],
            ExtractRankOperation(r, 1, 2).process_data()[0],
            BasicStatisticsOperation(r).mean(),
        ]
        for out in outputs:
            assert out.trial.metric("TIME").units == "usec"
            assert not out.trial.metric("TIME").derived

    def test_rank_of_a_difference_saves_and_reloads(self):
        from repro.core.script import DifferenceOperation, ExtractRankOperation
        from repro.perfdmf import PerfDMF

        def one_event(name, values):
            return (TrialBuilder(name).with_events(["main"]).with_threads(2)
                    .with_metric("TIME", np.array([values]), units="usec")
                    .build())

        diff = DifferenceOperation(
            TrialResult(one_event("a", [1.0, 5.0])),
            TrialResult(one_event("b", [3.0, 2.0]))).process_data()[0]
        rank = ExtractRankOperation(diff, 0, 0).process_data()[0]
        assert rank.trial.metric("TIME").derived
        with PerfDMF() as db:
            db.save_trial("A", "E", rank.trial)
            loaded = db.load_trial("A", "E", rank.trial.name)
        assert loaded.metric("TIME").units == "usec"
        assert loaded.metric("TIME").derived
        assert loaded.exclusive_array("TIME").tolist() == [[-2.0]]
