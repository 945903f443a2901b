"""RegressionRules: the sentinel's slice of the expert rulebase.

These rules consume the fact vocabulary of :mod:`repro.regress.facts` and
*chain* with the shipped diagnosis rules — the point of running detection
inside the knowledge pipeline instead of a bare threshold script.  A
regression that joins against an ImbalanceFact, for example, comes back
with the same scheduling recommendation the paper's §III.A case study
produces, now scoped to "this got slower since the baseline".

``regression_rulebase()`` is the merged base (diagnosis + regression) and
registers under the name ``"regression-rules"`` so scripts can write
``RuleHarness.useGlobalRules("regression-rules")``.
"""

from __future__ import annotations

from ..core.harness import register_rulebase
from ..rules import Rule, RuleBuilder, RuleContext
from .rules_def import IMBALANCE_RATIO_THRESHOLD

#: Regressions below this share of runtime get logged but no recommendation.
REGRESSION_SEVERITY_THRESHOLD = 0.01

RULEBASE_NAME = "regression-rules"


def regression_detected_rule() -> Rule:
    """Every significant regression yields an investigation recommendation."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Regression: {ctx['e']} is {ctx['chg']:.1%} slower than "
            f"baseline {ctx['base']} ({ctx['bm']:.4g} → {ctx['cm']:.4g} "
            f"{ctx['m']}, {ctx['sev']:.1%} of runtime)."
        )
        ctx.insert(
            "Recommendation",
            category="performance-regression",
            event=ctx["e"],
            severity=ctx["sev"],
            relative_change=ctx["chg"],
            baseline=ctx["base"],
            metric=ctx["m"],
            message=(
                f"{ctx['e']} regressed {ctx['chg']:.1%} vs baseline "
                f"{ctx['base']}; bisect the change that touched it"
            ),
        )

    return (
        RuleBuilder(
            "Performance regression detected",
            salience=5,
            doc="regress: flag each offending event with context",
        )
        .when(
            "r",
            "RegressionFact",
            "e := eventName",
            "m := metric",
            "chg := relativeChange",
            "sev := severity",
            "base := baseline",
            "bm := baselineMean",
            "cm := candidateMean",
            ("severity", ">", REGRESSION_SEVERITY_THRESHOLD),
        )
        .then(action)
        .build()
    )


def regression_imbalance_rule() -> Rule:
    """Chained diagnosis: a regressed event that is also imbalanced across
    threads gets the §III.A scheduling recommendation, not just a flag."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Regression localized: {ctx['e']} regressed {ctx['chg']:.1%} "
            f"and is unbalanced across threads (ratio {ctx['ratio']:.3f}) — "
            "the slowdown concentrates on a subset of threads."
        )
        ctx.log(
            "    Suggested scheduling change: schedule(dynamic,1) on the "
            "parallel loop."
        )
        ctx.insert(
            "Recommendation",
            category="regression-load-imbalance",
            event=ctx["e"],
            severity=ctx["sev"],
            relative_change=ctx["chg"],
            imbalance_ratio=ctx["ratio"],
            suggested_schedule="dynamic,1",
            message=(
                f"regression in {ctx['e']} coincides with load imbalance; "
                "use dynamic scheduling"
            ),
        )

    return (
        RuleBuilder(
            "Regression localized in imbalanced event",
            salience=10,
            doc="regress: join RegressionFact with ImbalanceFact",
        )
        .when(
            "r",
            "RegressionFact",
            "e := eventName",
            "chg := relativeChange",
            "sev := severity",
        )
        .when(
            "i",
            "ImbalanceFact",
            ("eventName", "==", "$e"),
            "ratio := ratio",
            ("ratio", ">", IMBALANCE_RATIO_THRESHOLD),
        )
        .then(action)
        .build()
    )


def regression_summary_rule() -> Rule:
    """Whole-trial verdict logging (the CI gate's headline)."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Trial {ctx['t']} vs baseline {ctx['base']}: verdict "
            f"{ctx['v']} (total {ctx['tc']:+.1%}, "
            f"{ctx['nr']} regressed / {ctx['ni']} improved events)."
        )

    return (
        RuleBuilder(
            "Regression summary",
            salience=20,
            doc="regress: log the comparison verdict first",
        )
        .when(
            "s",
            "RegressionSummaryFact",
            "t := trial",
            "base := baseline",
            "v := verdict",
            "tc := totalChange",
            "nr := regressedEvents",
            "ni := improvedEvents",
        )
        .then(action)
        .build()
    )


def improvement_promotion_rule() -> Rule:
    """Accepted improvements propose a baseline promotion — the sentinel
    reads this recommendation to auto-promote."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Improvement: trial {ctx['t']} is {-ctx['tc']:.1%} faster than "
            f"baseline {ctx['base']}; promote it."
        )
        ctx.insert(
            "Recommendation",
            category="baseline-promotion",
            event="<program>",
            severity=-ctx["tc"],
            trial=ctx["t"],
            baseline=ctx["base"],
            message=(
                f"trial {ctx['t']} improved {-ctx['tc']:.1%} over "
                f"{ctx['base']}; promote it to baseline"
            ),
        )

    return (
        RuleBuilder(
            "Improvement promotes baseline",
            salience=8,
            doc="regress: accepted improvements move the baseline forward",
        )
        .when(
            "s",
            "RegressionSummaryFact",
            ("verdict", "==", "improved"),
            "t := trial",
            "base := baseline",
            "tc := totalChange",
        )
        .then(action)
        .build()
    )


def regression_rules() -> list[Rule]:
    """Just the sentinel's rules (no diagnosis chaining)."""
    return [
        regression_summary_rule(),
        regression_imbalance_rule(),
        improvement_promotion_rule(),
        regression_detected_rule(),
    ]


def regression_rulebase() -> list[Rule]:
    """The merged rulebase: shipped diagnosis rules + regression rules,
    so regressions chain into full diagnoses."""
    from .rulebase import openuh_rules

    return openuh_rules() + regression_rules()


register_rulebase(RULEBASE_NAME, regression_rulebase)
