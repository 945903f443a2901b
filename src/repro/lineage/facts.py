"""Lineage facts: turning a history sweep into working memory.

The scanner answers "which steps regressed?"; the knowledge layer's job
is to say *what that means* — "v17 is the first bad version", "this is
slow creep, no single commit is to blame", "the rulebase changed here
too, the regression may be an analyzer artifact".  Following the repo's
generator/rule split, the generators below compute numeric candidate
facts and leave every threshold to the ``lineage-rules`` rulebase:

=====================  ==================================================
Fact type              Fields
=====================  ==================================================
VersionComparisonFact  version, parentVersion, index, verdict,
                       prevVerdict, totalChange, rulebaseChanged,
                       bridgedGaps
DegradationFact        version, parentVersion, eventName, metric,
                       relativeChange, severity, pValue
DriftFact              startVersion, endVersion, versions, totalChange,
                       maxStepChange
=====================  ==================================================

A ``DriftFact`` is emitted for every maximal run of >= 2 consecutive
worsening steps — linear in history length — so the slow-creep rule can
threshold on "large total, small steps" without quadratic window
enumeration.
"""

from __future__ import annotations

from ..core.harness import RuleHarness
from ..regress.detect import one_per_event
from ..rules import Fact
from .scanner import PairComparison, ScanResult

__all__ = [
    "degradation_facts",
    "diagnose_lineage",
    "drift_facts",
    "lineage_facts",
]


def degradation_facts(scan: ScanResult) -> list[Fact]:
    """Per-step facts: one VersionComparisonFact per adjacent pair plus
    one DegradationFact per (regressed step, offending event)."""
    facts: list[Fact] = []
    prev_verdict = "ok"
    for cmp_ in scan.comparisons:
        facts.append(Fact(
            "VersionComparisonFact",
            version=cmp_.version,
            parentVersion=cmp_.parent,
            index=cmp_.index,
            verdict=cmp_.verdict,
            prevVerdict=prev_verdict,
            totalChange=cmp_.report.total_relative_change,
            rulebaseChanged=cmp_.rulebase_changed,
            bridgedGaps=len(cmp_.bridged_gaps),
        ))
        prev_verdict = cmp_.verdict
        if cmp_.verdict != "regressed":
            continue
        for delta in one_per_event(cmp_.report.top_offenders()):
            facts.append(Fact(
                "DegradationFact",
                version=cmp_.version,
                parentVersion=cmp_.parent,
                eventName=delta.event,
                metric=delta.metric,
                relativeChange=delta.relative_change,
                severity=delta.severity,
                pValue=delta.welch.p_value,
            ))
    return facts


def drift_facts(scan: ScanResult) -> list[Fact]:
    """One DriftFact per maximal run of consecutive worsening steps."""
    facts: list[Fact] = []
    run: list[PairComparison] = []

    def flush() -> None:
        if len(run) >= 2:
            total = 1.0
            for cmp_ in run:
                total *= 1.0 + cmp_.report.total_relative_change
            facts.append(Fact(
                "DriftFact",
                startVersion=run[0].parent,
                endVersion=run[-1].version,
                versions=len(run),
                totalChange=total - 1.0,
                maxStepChange=max(
                    c.report.total_relative_change for c in run
                ),
            ))
        run.clear()

    for cmp_ in scan.comparisons:
        if cmp_.report.total_relative_change > 0.0:
            run.append(cmp_)
        else:
            flush()
    flush()
    return facts


def lineage_facts(scan: ScanResult) -> list[Fact]:
    """The full fact vocabulary for one scan sweep."""
    return degradation_facts(scan) + drift_facts(scan)


def diagnose_lineage(
    scan: ScanResult, *, harness: RuleHarness | None = None
) -> RuleHarness:
    """Fire the ``lineage-rules`` rulebase over a scan sweep."""
    from ..knowledge.lineage_rules import lineage_rulebase

    h = harness or RuleHarness(lineage_rulebase())
    h.assertObjects(lineage_facts(scan))
    h.processRules()
    return h
