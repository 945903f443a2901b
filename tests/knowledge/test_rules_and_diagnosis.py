"""Tests for the knowledge layer: fact generation, rules, diagnosis."""

import numpy as np
import pytest

from repro.core import PerformanceResult, RuleHarness
from repro.core.result import AnalysisError
from repro.knowledge import (
    diagnose_genidlest,
    diagnose_load_balance,
    diagnose_locality,
    diagnose_stalls,
    imbalance_facts,
    inefficiency_facts,
    locality_facts,
    openuh_rules,
    power_level_facts,
    prl_rules,
    recommend_power_levels,
    recommendations_of,
    render_report,
    serialization_facts,
    stall_decomposition_facts,
    summarize_categories,
)
from repro.machine import counters as C
from repro.perfdmf import TrialBuilder
from repro.power import LevelMeasurement
from repro.rules import Fact


def synthetic_imbalanced_trial():
    """main -> outer -> inner with triangular inner times."""
    n = 8
    inner = np.linspace(10.0, 90.0, n)  # heavily skewed
    outer = 100.0 - inner  # barrier waits: perfect anti-correlation
    time_exc = np.vstack([np.full(n, 5.0), outer, inner])
    time_inc = np.vstack([np.full(n, 105.0), outer + inner, inner])
    return (
        TrialBuilder(
            "imb",
            {
                "schedule": "static",
                "callgraph": [["main", "outer"], ["outer", "inner"]],
            },
        )
        .with_events(["main", "outer", "inner"])
        .with_threads(n)
        .with_metric("TIME", time_exc, time_inc, units="usec")
        .with_calls(np.ones((3, n)))
        .build(validate=False)
    )


class TestRulebaseAssembly:
    def test_prl_rules_parse(self):
        rules = prl_rules()
        names = [r.name for r in rules]
        assert "Stalls per Cycle" in names
        assert "Static schedule with imbalance" in names

    def test_full_rulebase_unique_names(self):
        rules = openuh_rules()
        names = [r.name for r in rules]
        assert len(names) == len(set(names))
        assert len(rules) >= 12

    def test_registered_name_resolves(self):
        h = RuleHarness("openuh-rules")
        assert len(h.engine.rules) >= 12

    def test_threshold_overrides(self):
        rules = openuh_rules(ratio_threshold=0.9)
        assert rules  # built without error
        with pytest.raises(ValueError, match="unknown threshold"):
            openuh_rules(bogus=1.0)


class TestImbalanceDiagnosis:
    def test_fires_on_imbalanced_nested_loops(self):
        h = diagnose_load_balance(synthetic_imbalanced_trial())
        cats = summarize_categories(h)
        assert cats.get("load-imbalance", 0) >= 1
        recs = recommendations_of(h)
        rec = next(r for r in recs if r.category == "load-imbalance")
        assert rec.event == "inner"
        assert rec.details["suggested_schedule"] == "dynamic,1"
        # the metadata-context rule corroborates (schedule=static recorded)
        assert any("schedule(static)" in line for line in h.output)

    def test_silent_on_balanced_trial(self):
        n = 8
        time_exc = np.vstack([np.full(n, 5.0), np.full(n, 50.0), np.full(n, 50.0)])
        time_inc = np.vstack([np.full(n, 105.0), np.full(n, 100.0), np.full(n, 50.0)])
        trial = (
            TrialBuilder("bal", {"callgraph": [["outer", "inner"]]})
            .with_events(["main", "outer", "inner"])
            .with_threads(n)
            .with_metric("TIME", time_exc, time_inc, units="usec")
            .with_calls(np.ones((3, n)))
            .build(validate=False)
        )
        h = diagnose_load_balance(trial)
        assert summarize_categories(h).get("load-imbalance", 0) == 0

    def test_imbalance_facts_fields(self):
        facts = imbalance_facts(PerformanceResult(synthetic_imbalanced_trial()))
        by_type = {}
        for f in facts:
            by_type.setdefault(f.fact_type, []).append(f)
        assert {f["eventName"] for f in by_type["ImbalanceFact"]} == {
            "main", "outer", "inner"}
        assert len(by_type["CallGraphEdge"]) == 2
        corr = next(
            f for f in by_type["CorrelationFact"]
            if f["eventA"] == "outer" and f["eventB"] == "inner"
        )
        assert corr["correlation"] == pytest.approx(-1.0)

    def test_batch_rows_equal_per_fact_construction(self):
        """Every row of the batched stream, as working memory builds it,
        equals (``value_equals`` and ``repr``) the fact the one-object-per-
        row script built, at the same rank."""
        from repro.core.operations.correlation import pearson
        from repro.core.facts import event_severities
        from repro.core.operations.statistics import BasicStatisticsOperation

        trial = synthetic_imbalanced_trial()
        trial.metadata["callgraph"] = [
            ["main", "outer"], ["outer", "ext_0"], ["outer", "inner"],
            ["ext_1", "inner"], ["inner", "main"]]
        result = PerformanceResult(trial)
        arr = result.exclusive(C.TIME)
        means, stds = arr.mean(axis=1), arr.std(axis=1)
        ratios = np.divide(stds, means, out=np.zeros_like(stds),
                           where=means != 0)
        severities = event_severities(BasicStatisticsOperation(result).mean())
        expected = [
            Fact("ImbalanceFact", trial="imb", eventName=event, ratio=ratio,
                 severity=severity)
            for event, ratio, severity in zip(
                result.events, ratios.tolist(), severities.tolist())]
        index = {event: i for i, event in enumerate(result.events)}
        for parent, child in trial.metadata["callgraph"]:
            expected.append(Fact("CallGraphEdge", trial="imb", parent=parent,
                                 child=child))
            p, c = index.get(parent), index.get(child)
            if p is not None and c is not None:
                expected.append(Fact("CorrelationFact", trial="imb",
                                     eventA=parent, eventB=child,
                                     correlation=pearson(arr[p], arr[c])))

        harness = RuleHarness()
        harness.assertObjects(imbalance_facts(result))
        handles = sorted(harness.engine.memory, key=lambda h: h.seq)
        assert len(handles) == len(expected) == 11
        for handle, fact in zip(handles, expected):
            assert handle.fact.value_equals(fact)
            assert repr(handle.fact) == repr(fact)

    def test_single_thread_rejected(self):
        t = (
            TrialBuilder("one")
            .with_events(["main"])
            .with_threads(1)
            .with_metric("TIME", np.array([[1.0]]))
            .build()
        )
        with pytest.raises(AnalysisError):
            imbalance_facts(PerformanceResult(t))


class TestStallAndLocalityFacts:
    def _trial(self):
        n = 4
        ones = np.ones((2, n))
        cycles = ones * 1e9
        return (
            TrialBuilder("s")
            .with_events(["main", "kern"])
            .with_threads(n)
            .with_metric("TIME", ones * 50.0, ones * 100.0, units="usec")
            .with_metric("CPU_CYCLES", cycles, cycles * 2)
            .with_metric("BACK_END_BUBBLE_ALL",
                         cycles * np.array([[0.2], [0.7]]),
                         cycles * np.array([[0.4], [0.7]]) * 2)
            .with_metric("FP_OPS", ones * 1e8, ones * 3e8)
            .with_metric("L1D_CACHE_MISS_STALLS",
                         cycles * np.array([[0.1], [0.6]]),
                         cycles * np.array([[0.2], [0.6]]) * 2)
            .with_metric("FP_STALLS",
                         cycles * np.array([[0.02], [0.06]]),
                         cycles * np.array([[0.04], [0.06]]) * 2)
            .with_metric("REMOTE_MEMORY_ACCESSES",
                         ones * np.array([[1e5], [9e6]]),
                         2 * ones * np.array([[1e5], [9e6]]))
            .with_metric("LOCAL_MEMORY_ACCESSES",
                         ones * np.array([[9e5], [1e6]]),
                         2 * ones * np.array([[9e5], [1e6]]))
            .with_calls(ones)
            .build(validate=False)
        )

    def test_stall_decomposition(self):
        facts = stall_decomposition_facts(PerformanceResult(self._trial()))
        kern = next(f for f in facts if f["eventName"] == "kern")
        assert kern["memoryFraction"] == pytest.approx(0.6 / 0.7)
        assert kern["coveredFraction"] == pytest.approx((0.6 + 0.06) / 0.7)

    def test_locality_facts(self):
        facts = locality_facts(PerformanceResult(self._trial()))
        kern = next(f for f in facts if f["eventName"] == "kern")
        assert kern["remoteRatio"] == pytest.approx(0.9)
        assert 0 < kern["appRemoteRatio"] < 0.9

    def test_inefficiency_metric_name(self):
        facts = inefficiency_facts(PerformanceResult(self._trial()))
        assert all(f["metric"] == "Inefficiency" for f in facts)
        assert {f["eventName"] for f in facts} == {"kern"}

    def test_diagnosis_scripts_run(self):
        h = diagnose_stalls(self._trial())
        assert summarize_categories(h).get("memory-bound", 0) >= 1
        h2 = diagnose_locality(self._trial())
        assert summarize_categories(h2).get("data-locality", 0) >= 1

    def test_missing_metric_rejected(self):
        t = (
            TrialBuilder("m")
            .with_events(["main"])
            .with_threads(2)
            .with_metric("TIME", np.ones((1, 2)))
            .build()
        )
        with pytest.raises(AnalysisError):
            stall_decomposition_facts(PerformanceResult(t))
        with pytest.raises(AnalysisError):
            locality_facts(PerformanceResult(t))


class TestSerialization:
    def test_concentrated_event_detected(self):
        n = 8
        exc = np.zeros((2, n))
        exc[0] = 100.0  # main everywhere
        exc[1, 0] = 40.0  # serial copy loop on thread 0 only
        inc = exc.copy()
        inc[0] = 100.0
        t = (
            TrialBuilder("ser")
            .with_events(["main", "ghost_copy"])
            .with_threads(n)
            .with_metric("TIME", exc, inc, units="usec")
            .with_calls(np.ones((2, n)))
            .build(validate=False)
        )
        facts = serialization_facts(PerformanceResult(t))
        gc = next(f for f in facts if f["eventName"] == "ghost_copy")
        assert gc["concentration"] == pytest.approx(1.0)
        assert gc["severity"] == pytest.approx(0.4)


class TestPowerRules:
    def _measurements(self):
        # watts: O0 lowest; joules: O3 lowest; O2 stays at the power floor
        # (within 0.5%) with near-minimal energy -> best balance
        data = [
            ("O0", 100.0, 1000.0),
            ("O1", 106.0, 400.0),
            ("O2", 100.4, 90.0),
            ("O3", 107.0, 88.0),
        ]
        return [
            LevelMeasurement(
                level=l, seconds=j / w, instructions_completed=1,
                instructions_issued=1, cycles=1, watts=w, joules=j, flops=1,
            )
            for l, w, j in data
        ]

    def test_power_energy_recommendations(self):
        h = recommend_power_levels(self._measurements())
        recs = recommendations_of(h)
        by_target = {r.details.get("target"): r for r in recs}
        assert by_target["power"].details["suggested_level"] == "O0"
        assert by_target["energy"].details["suggested_level"] == "O3"
        assert by_target["both"].details["suggested_level"] == "O2"

    def test_power_level_facts_product(self):
        facts = power_level_facts(self._measurements())
        assert facts[0]["product"] == pytest.approx(100.0 * 1000.0)
        with pytest.raises(AnalysisError):
            power_level_facts([])


class TestEndToEndDiagnosis:
    def test_genidlest_unopt_diagnosed(self):
        from repro.apps.genidlest import RIB45, RunConfig, run_genidlest

        r = run_genidlest(RunConfig(case=RIB45, version="openmp",
                                    optimized=False, n_procs=8, iterations=2))
        h = diagnose_genidlest(r.trial)
        cats = summarize_categories(h)
        assert cats.get("sequential-bottleneck", 0) >= 1
        assert cats.get("data-locality", 0) >= 1
        report = render_report(h)
        assert "Recommendations" in report and "Rules fired" in report

    def test_msa_static_diagnosed(self):
        from repro.apps.msa import run_msa_trial

        r = run_msa_trial(n_sequences=100, n_threads=8, schedule="static")
        h = diagnose_load_balance(r.trial)
        recs = recommendations_of(h)
        assert any(r_.category == "load-imbalance" for r_ in recs)

    def test_msa_dynamic_clean(self):
        from repro.apps.msa import run_msa_trial

        r = run_msa_trial(n_sequences=100, n_threads=8, schedule="dynamic,1")
        h = diagnose_load_balance(r.trial)
        assert summarize_categories(h).get("load-imbalance", 0) == 0
