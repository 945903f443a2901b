"""Regression facts: wiring change detection into the knowledge pipeline.

A regression alone is a *flag*; the paper's pipeline exists to attach a
*diagnosis*.  This module converts a :class:`~repro.regress.detect.RegressionReport`
into facts the inference engine can chain on:

================        ====================================================
Fact type               Fields
================        ====================================================
RegressionFact          trial, baseline, eventName, metric, relativeChange,
                        severity, pValue, baselineMean, candidateMean
ImprovementFact         same fields (negative relativeChange)
RegressionSummaryFact   trial, baseline, verdict, totalChange,
                        regressedEvents, improvedEvents
================        ====================================================

``diagnose_regression`` is the chained analysis script: it asserts the
regression facts *and* the candidate trial's ordinary diagnosis facts
(imbalance, metadata, ...) into one working memory, then fires the merged
rulebase — so "regression localized in loop X" can join against "loop X is
imbalanced" and produce a recommendation, not just a flag.
"""

from __future__ import annotations

from ..core.facts import trial_metadata_facts
from ..core.harness import RuleHarness
from ..core.result import PerformanceResult
from ..perfdmf import Trial
from ..rules import Fact
from .detect import EventDelta, RegressionReport, one_per_event


def _delta_fact(kind: str, report: RegressionReport,
                delta: EventDelta) -> Fact:
    return Fact(
        kind,
        trial=report.candidate_trial,
        baseline=report.baseline_trial,
        eventName=delta.event,
        metric=delta.metric,
        relativeChange=delta.relative_change,
        severity=delta.severity,
        pValue=delta.welch.p_value,
        baselineMean=delta.baseline_mean,
        candidateMean=delta.candidate_mean,
    )


def regression_facts(report: RegressionReport) -> list[Fact]:
    """The fact vocabulary for one comparison (summary + per-event)."""
    facts = [
        Fact(
            "RegressionSummaryFact",
            trial=report.candidate_trial,
            baseline=report.baseline_trial,
            verdict=report.verdict,
            totalChange=report.total_relative_change,
            regressedEvents=len(report.regressions),
            improvedEvents=len(report.improvements),
        )
    ]
    # top_offenders is ranked worst-first, so each event's fact carries
    # the metric the rules should reason about
    facts += [_delta_fact("RegressionFact", report, delta)
              for delta in one_per_event(report.top_offenders())]
    facts += [_delta_fact("ImprovementFact", report, delta)
              for delta in one_per_event(report.improvements)]
    return facts


def diagnose_regression(
    report: RegressionReport,
    candidate: Trial | None = None,
    *,
    harness: RuleHarness | None = None,
) -> RuleHarness:
    """Fire the merged (diagnosis + regression) rulebase over a report.

    When ``candidate`` is given, its ordinary diagnosis facts are asserted
    alongside the regression facts so the chained rules can localize the
    regression (imbalance, metadata context, ...).
    """
    from ..knowledge import regression_rulebase

    h = harness or RuleHarness(regression_rulebase())
    h.assertObjects(regression_facts(report))
    if candidate is not None:
        from ..machine import counters as C

        result = PerformanceResult(candidate)
        h.assertObjects(trial_metadata_facts(result))
        if result.thread_count >= 2 and result.has_metric(C.TIME):
            from ..knowledge.facts_gen import imbalance_facts

            h.assertObjects(imbalance_facts(result))
    h.processRules()
    return h
