"""End-to-end test of the Fig. 1 script + Fig. 2 rule, ported verbatim.

This is experiment FIG1/FIG2 from DESIGN.md: the paper's sample Jython
script and sample DRL rule must run equivalently through our facade.
"""

import numpy as np
import pytest

from repro.core import RuleHarness
from repro.core.result import AnalysisError
from repro.core.facts import (
    callgraph_facts,
    event_severities,
    severity_of,
    trial_metadata_facts,
)
from repro.core.script import (
    DeriveMetricOperation,
    MeanEventFact,
    TrialMeanResult,
    Utilities,
)
from repro.perfdmf import PerfDMF, TrialBuilder, set_default_repository

FIG2_RULE = '''
rule "Stalls per Cycle"
when
    f : MeanEventFact(
        metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
        higherLower == higher,
        severity > 0.10,
        e := eventName,
        a := mainValue,
        v := eventValue,
        factType == "Compared to Main" )
then
    log "Event {e} has a higher than average stall / cycle rate"
    log "    Average stall / cycle: {a:.4f}"
    log "    Event stall / cycle: {v:.4f}"
    log "    Percentage of total runtime: {f.severity:.4f}"
end
'''


@pytest.fixture
def repository():
    repo = PerfDMF()
    set_default_repository(repo)
    yield repo
    set_default_repository(None)


def store_fluid_trial(repo):
    """A rib-45-like trial: one stall-bound kernel, one clean kernel."""
    # events: main, diff_coeff (stall-bound, 30% runtime), pc (clean, 5%)
    time_exc = np.array(
        [
            [65.0] * 8,
            [30.0] * 8,
            [5.0] * 8,
        ]
    )
    time_inc = np.array([[100.0] * 8, [30.0] * 8, [5.0] * 8])
    cycles = time_exc * 1500.0
    cycles_inc = time_inc * 1500.0
    stall_frac = np.array([[0.2], [0.8], [0.1]])
    trial = (
        TrialBuilder("1_8", {"problem": "rib 45"})
        .with_events(["main", "diff_coeff", "pc"])
        .with_threads(8)
        .with_metric("TIME", time_exc, time_inc, units="usec")
        .with_metric("CPU_CYCLES", cycles, cycles_inc)
        .with_metric("BACK_END_BUBBLE_ALL", cycles * stall_frac,
                     cycles_inc * stall_frac)
        .with_calls(np.ones((3, 8)))
        .build()
    )
    repo.save_trial("Fluid Dynamic", "rib 45", trial)


class TestPaperScript:
    def test_fig1_script_port(self, repository):
        store_fluid_trial(repository)

        # --- the Fig. 1 script, line for line -------------------------
        ruleHarness = RuleHarness.useGlobalRules(FIG2_RULE)
        trial = TrialMeanResult(
            Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8")
        )
        stalls = "BACK_END_BUBBLE_ALL"
        cycles = "CPU_CYCLES"
        operator = DeriveMetricOperation(
            trial, stalls, cycles, DeriveMetricOperation.DIVIDE
        )
        derived = operator.processData().get(0)
        mainEvent = derived.getMainEvent()
        for event in derived.getEvents():
            if event == mainEvent:
                continue
            ruleHarness.assertObject(
                MeanEventFact.compareEventToMain(
                    derived, mainEvent, event, operator.derived_name
                )
            )
        fired = ruleHarness.processRules()
        # ----------------------------------------------------------------

        assert fired == 1  # only diff_coeff: high ratio AND >10% runtime
        joined = "\n".join(ruleHarness.output)
        assert "diff_coeff" in joined
        assert "pc" not in joined.replace("cycle", "")  # pc didn't fire
        assert "Percentage of total runtime: 0.3000" in joined
        RuleHarness.clearGlobal()

    def test_global_harness_lifecycle(self):
        RuleHarness.clearGlobal()
        with pytest.raises(Exception, match="no global RuleHarness"):
            RuleHarness.getInstance()
        h = RuleHarness.useGlobalRules(FIG2_RULE)
        assert RuleHarness.getInstance() is h
        RuleHarness.clearGlobal()


class TestMeanEventFact:
    def _result(self):
        time_exc = np.array([[10.0, 10.0], [40.0, 40.0]])
        time_inc = np.array([[100.0, 100.0], [40.0, 40.0]])
        trial = (
            TrialBuilder("t", {"schedule": "static", "callgraph": [["main", "k"]]})
            .with_events(["main", "k"])
            .with_threads(2)
            .with_metric("TIME", time_exc, time_inc, units="usec")
            .with_metric("RATIO", np.array([[0.2, 0.2], [0.9, 0.9]]),
                         np.array([[0.3, 0.3], [0.9, 0.9]]))
            .with_calls(np.ones((2, 2)))
            .build(validate=False)
        )
        return TrialMeanResult(trial)

    def test_fact_fields(self):
        r = self._result()
        f = MeanEventFact.compare_event_to_main(r, "main", "k", "RATIO")
        assert f.fact_type == "MeanEventFact"
        assert f["metric"] == "RATIO"
        assert f["higherLower"] == "higher"  # 0.9 > main's inclusive 0.3
        assert f["mainValue"] == pytest.approx(0.3)
        assert f["eventValue"] == pytest.approx(0.9)
        assert f["severity"] == pytest.approx(0.4)  # 40/100 of runtime
        assert f["factType"] == "Compared to Main"

    def test_lower_and_same(self):
        r = self._result()
        lower = MeanEventFact.compare_event_to_main(r, "k", "main", "RATIO")
        assert lower["higherLower"] == "lower"  # main excl 0.2 < k incl 0.9
        same = MeanEventFact.compare_event_to_main(r, "k", "k", "RATIO",
                                                   inclusive=True)
        assert same["higherLower"] == "same"

    def test_compare_all_events(self):
        r = self._result()
        facts = MeanEventFact.compare_all_events_to_main(r, "RATIO")
        assert [f["eventName"] for f in facts] == ["k"]
        facts = MeanEventFact.compare_all_events_to_main(
            r, "RATIO", include_main=True
        )
        assert len(facts) == 2

    def test_severity_of(self):
        r = self._result()
        assert severity_of(r, "k") == pytest.approx(0.4)
        assert severity_of(r, "main") == pytest.approx(0.1)

    def test_event_severities_match_severity_of_bitwise(self):
        rng = np.random.default_rng(3)
        for main_total in (rng.uniform(1, 1e4), 0.0, -1.0):
            exc = rng.uniform(0, 1e3, size=(6, 3))
            inc = exc.copy()
            inc[0] = main_total
            r = TrialMeanResult(
                TrialBuilder("s")
                .with_events(["main"] + [f"e{i}" for i in range(5)])
                .with_threads(3)
                .with_metric("TIME", exc, inc)
                .build(validate=False))
            expected = [severity_of(r, e) for e in r.events]
            got = event_severities(r).tolist()
            assert [v.hex() for v in got] == [v.hex() for v in expected]
        with pytest.raises(AnalysisError, match="severity metric"):
            event_severities(r, severity_metric="NOPE")

    def test_metadata_facts(self):
        facts = trial_metadata_facts(self._result())
        by_name = {f["name"]: f for f in facts}
        assert by_name["schedule"]["value"] == "static"
        assert by_name["callgraph"]["value"] == repr([["main", "k"]])

    def test_callgraph_facts(self):
        facts = callgraph_facts(self._result())
        assert len(facts) == 1
        assert facts[0]["parent"] == "main" and facts[0]["child"] == "k"
