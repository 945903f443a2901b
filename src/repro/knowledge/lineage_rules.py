"""LineageRules: explaining performance history, not just flagging it.

These rules consume the fact vocabulary of :mod:`repro.lineage.facts`
— the output of sweeping the regression detectors along a version chain
— and produce the three history-level diagnoses a bare per-pair
comparison cannot:

* **first-bad-version** — the earliest step that flips to ``regressed``
  after healthy history, joined with its offending event so the
  recommendation names *where* the slowdown landed, not just when;
* **slow-creep** — a run of individually-insignificant worsening steps
  whose compound change is large: no single commit is the culprit and
  bisect will not converge on one;
* **rulebase-coincident-regression** — the analyzer's own rulebase
  fingerprint changed across the regressing step, so the "regression"
  may be a measurement-side artifact and deserves a re-run under the
  old rulebase before anyone blames the code.

``lineage_rulebase()`` registers under ``"lineage-rules"``.
"""

from __future__ import annotations

from ..core.harness import register_rulebase
from ..rules import Rule, RuleBuilder, RuleContext

#: Degradations below this share of runtime get logged, not recommended.
DEGRADATION_SEVERITY_THRESHOLD = 0.01
#: A drift run is "creep" when its compound change exceeds this ...
CREEP_TOTAL_THRESHOLD = 0.10
#: ... while every individual step stayed below this.
CREEP_STEP_THRESHOLD = 0.08

RULEBASE_NAME = "lineage-rules"


def first_bad_version_rule() -> Rule:
    """The bisect target: the earliest regressed step after healthy
    history, localized to its worst event."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"First bad version: {ctx['v']} (parent {ctx['p']}) — "
            f"{ctx['e']} changed {ctx['chg']:+.1%} "
            f"({ctx['sev']:.1%} of runtime, {ctx['m']})."
        )
        ctx.insert(
            "Recommendation",
            category="first-bad-version",
            version=ctx["v"],
            parent=ctx["p"],
            event=ctx["e"],
            metric=ctx["m"],
            severity=ctx["sev"],
            relative_change=ctx["chg"],
            message=(
                f"performance history turns bad at {ctx['v']}: "
                f"{ctx['e']} regressed {ctx['chg']:+.1%} vs {ctx['p']}; "
                "inspect the change introduced there"
            ),
        )

    return (
        RuleBuilder(
            "First bad version identified",
            salience=15,
            doc="lineage: regressed step after healthy history, with locus",
        )
        .when(
            "c",
            "VersionComparisonFact",
            "v := version",
            "p := parentVersion",
            ("verdict", "==", "regressed"),
            ("prevVerdict", "!=", "regressed"),
        )
        .when(
            "d",
            "DegradationFact",
            ("version", "==", "$v"),
            "e := eventName",
            "m := metric",
            "chg := relativeChange",
            "sev := severity",
            ("severity", ">", DEGRADATION_SEVERITY_THRESHOLD),
        )
        .then(action)
        .build()
    )


def slow_creep_rule() -> Rule:
    """Many small worsening steps compounding into a real slowdown."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Slow creep: {ctx['tc']:+.1%} across {ctx['n']} versions "
            f"({ctx['s']}..{ctx['en']}), no step above "
            f"{ctx['ms']:+.1%} — no single culprit commit."
        )
        ctx.insert(
            "Recommendation",
            category="slow-creep",
            event="<program>",
            start_version=ctx["s"],
            end_version=ctx["en"],
            versions=ctx["n"],
            severity=ctx["tc"],
            max_step_change=ctx["ms"],
            message=(
                f"performance crept {ctx['tc']:+.1%} over {ctx['n']} "
                f"versions ({ctx['s']}..{ctx['en']}); bisect will not "
                "converge — audit the whole range"
            ),
        )

    return (
        RuleBuilder(
            "Slow creep across versions",
            salience=10,
            doc="lineage: large compound change from small steps",
        )
        .when(
            "dr",
            "DriftFact",
            "s := startVersion",
            "en := endVersion",
            "n := versions",
            "tc := totalChange",
            "ms := maxStepChange",
            ("totalChange", ">", CREEP_TOTAL_THRESHOLD),
            ("maxStepChange", "<", CREEP_STEP_THRESHOLD),
        )
        .then(action)
        .build()
    )


def rulebase_bump_rule() -> Rule:
    """A regression coinciding with a rulebase change is suspect — the
    measuring stick moved with the measurement."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"Caution: regression at {ctx['v']} coincides with a "
            "rulebase change — re-verify under the parent's rulebase "
            "before blaming the code."
        )
        ctx.insert(
            "Recommendation",
            category="rulebase-coincident-regression",
            event="<program>",
            version=ctx["v"],
            parent=ctx["p"],
            severity=ctx["tc"],
            message=(
                f"regression at {ctx['v']} landed together with a "
                "rulebase bump; confirm with the old rulebase first"
            ),
        )

    return (
        RuleBuilder(
            "Regression coincides with rulebase bump",
            salience=12,
            doc="lineage: flag analyzer-side changes at the bad step",
        )
        .when(
            "c",
            "VersionComparisonFact",
            "v := version",
            "p := parentVersion",
            "tc := totalChange",
            ("verdict", "==", "regressed"),
            ("rulebaseChanged", "==", True),
        )
        .then(action)
        .build()
    )


def lineage_history_rule() -> Rule:
    """Headline logging for every compared step (salience-first)."""

    def action(ctx: RuleContext) -> None:
        ctx.log(
            f"History step {ctx['p']} -> {ctx['v']}: {ctx['verdict']} "
            f"({ctx['tc']:+.1%})."
        )

    return (
        RuleBuilder(
            "Lineage step summary",
            salience=20,
            doc="lineage: log each compared step before diagnoses",
        )
        .when(
            "c",
            "VersionComparisonFact",
            "v := version",
            "p := parentVersion",
            "verdict := verdict",
            "tc := totalChange",
        )
        .then(action)
        .build()
    )


def lineage_rules() -> list[Rule]:
    """The history-level rules."""
    return [
        lineage_history_rule(),
        first_bad_version_rule(),
        rulebase_bump_rule(),
        slow_creep_rule(),
    ]


def lineage_rulebase() -> list[Rule]:
    return lineage_rules()


register_rulebase(RULEBASE_NAME, lineage_rulebase)
