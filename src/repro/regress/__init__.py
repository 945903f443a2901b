"""repro.regress: the performance-regression sentinel subsystem.

Closes the loop the paper leaves as future work: every stored trial can
be judged against an expected baseline, statistically (Welch's t-test
across threads plus a relative-threshold policy), and a detected
regression flows into the knowledge pipeline as facts so the rulebase
produces a *diagnosis* — "slower, here, and here is why" — instead of a
bare flag.  Baselines are versions in the one history store,
:class:`repro.lineage.LineageStore`; this package keeps only the
detector and what it feeds.

Layers::

    detect.py     statistical change detection (ThresholdPolicy → RegressionReport)
    facts.py      RegressionFact / RegressionSummaryFact generation + chaining
    sentinel.py   check() driver with CI exit codes
    report.py     text rendering for CLI and CI logs

The matching rules are ``knowledge/RegressionRules.prl`` (rulebase name
``"regression-rules"``), and the CLI verbs live under
``repro-perf regress``.
"""

from .detect import (
    IMPROVED,
    OK,
    REGRESSED,
    EventDelta,
    RegressionReport,
    ThresholdPolicy,
    compare_trials,
    perturb_trial,
)
from .facts import diagnose_regression, regression_facts
from .report import render_regression_report
from .sentinel import CheckOutcome, Verdict, check

__all__ = [
    "CheckOutcome",
    "EventDelta",
    "IMPROVED",
    "OK",
    "REGRESSED",
    "RegressionReport",
    "ThresholdPolicy",
    "Verdict",
    "check",
    "compare_trials",
    "diagnose_regression",
    "perturb_trial",
    "regression_facts",
    "render_regression_report",
]
