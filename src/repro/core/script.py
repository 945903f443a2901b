"""The PerfExplorer scripting facade.

One import gives a ported Jython analysis script everything the paper's
Fig. 1 uses::

    from repro.core.script import (
        RuleHarness, Utilities, TrialMeanResult, TrialResult,
        DeriveMetricOperation, MeanEventFact,
    )

    ruleHarness = RuleHarness.useGlobalRules("openuh-rules")
    trial = TrialMeanResult(Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8"))
    stalls = "BACK_END_BUBBLE_ALL"
    cycles = "CPU_CYCLES"
    operator = DeriveMetricOperation(trial, stalls, cycles,
                                     DeriveMetricOperation.DIVIDE)
    derived = operator.processData().get(0)
    mainEvent = derived.getMainEvent()
    for event in derived.getEvents():
        fact = MeanEventFact.compareEventToMain(derived, mainEvent, event,
                                                operator.derived_name)
        ruleHarness.assertObject(fact)
    ruleHarness.processRules()
"""

from __future__ import annotations

from ..perfdmf import Trial, Utilities
from .facts import MeanEventFact, callgraph_facts, trial_metadata_facts
from .harness import RuleHarness, register_rulebase, registered_rulebases
from .operations.base import PerformanceAnalysisOperation
from .operations.clustering import KMeansOperation, PCAOperation
from .operations.comparison import (
    DifferenceOperation,
    MergeTrialsOperation,
    TrialRatioOperation,
)
from .operations.correlation import CorrelationOperation, event_correlation
from .operations.derive import (
    DeriveMetricOperation,
    ScaleMetricOperation,
    derive_chain,
)
from .operations.extract import (
    ExtractEventOperation,
    ExtractMetricOperation,
    ExtractRankOperation,
    TopXEvents,
    TopXPercentEvents,
)
from .operations.scalability import ScalabilityOperation, ScalingSeries
from .operations.statistics import (
    BasicStatisticsOperation,
    RatioOperation,
    trial_mean_result,
    trial_total_result,
)
from .result import AnalysisError, PerformanceResult


def TrialResult(trial: Trial) -> PerformanceResult:
    """Wrap a trial for analysis without aggregation."""
    return PerformanceResult(trial)


def TrialMeanResult(trial: Trial) -> PerformanceResult:
    """Across-thread mean of a trial (the paper's loader of choice)."""
    return trial_mean_result(trial)


def TrialTotalResult(trial: Trial) -> PerformanceResult:
    """Across-thread totals of a trial."""
    return trial_total_result(trial)


def trial_ratios(db, app: str, exp: str, trial_a: str, trial_b: str,
                 metric: str = "TIME") -> list[tuple[float, str]]:
    """The §III.B comparison of two stored trials: per-event inclusive
    ``metric`` ratio of their means, as ``(ratio, event)`` rows, largest
    first (the ``compare`` verb and the ``compare`` job)."""
    mean_a = BasicStatisticsOperation(
        TrialResult(db.load_trial(app, exp, trial_a))).mean()
    mean_b = BasicStatisticsOperation(
        TrialResult(db.load_trial(app, exp, trial_b))).mean()
    ratio = TrialRatioOperation(mean_a, mean_b).process_data()[0]
    if not ratio.has_metric(metric):
        raise AnalysisError(
            f"no shared metric {metric!r}; have {ratio.metrics}")
    return sorted(
        ((float(ratio.event_row(e, metric, inclusive=True)[0]), e)
         for e in ratio.events),
        reverse=True,
    )


__all__ = [
    "AnalysisError",
    "BasicStatisticsOperation",
    "CorrelationOperation",
    "DeriveMetricOperation",
    "DifferenceOperation",
    "ExtractEventOperation",
    "ExtractMetricOperation",
    "ExtractRankOperation",
    "KMeansOperation",
    "MeanEventFact",
    "MergeTrialsOperation",
    "PCAOperation",
    "PerformanceAnalysisOperation",
    "PerformanceResult",
    "RatioOperation",
    "RuleHarness",
    "ScalabilityOperation",
    "ScaleMetricOperation",
    "ScalingSeries",
    "TopXEvents",
    "TopXPercentEvents",
    "TrialMeanResult",
    "TrialRatioOperation",
    "TrialResult",
    "TrialTotalResult",
    "Utilities",
    "callgraph_facts",
    "derive_chain",
    "event_correlation",
    "register_rulebase",
    "registered_rulebases",
    "trial_metadata_facts",
    "trial_ratios",
]
