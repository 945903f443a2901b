"""The sentinel driver: gate a PerfDMF experiment like a perf CI step.

``check`` compares one candidate trial against the active baseline kept
in the :class:`~repro.lineage.LineageStore` and returns an
exit-code-friendly outcome.  With ``auto_promote``, an accepted
improvement records the pair's next baseline version, so the expected
performance ratchets forward — the Perun-style closed loop the paper
leaves as future work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .. import observe
from ..core.harness import RuleHarness
from ..lineage.store import LineageStore
from ..perfdmf import PerfDMF, ProfileError
from .detect import IMPROVED, OK, REGRESSED, RegressionReport, ThresholdPolicy, compare_trials
from .facts import diagnose_regression


class Verdict(enum.Enum):
    """CI-facing verdicts; ``exit_code`` is what a gate should return."""

    OK = OK
    IMPROVED = IMPROVED
    REGRESSED = REGRESSED

    @property
    def exit_code(self) -> int:
        return 1 if self is Verdict.REGRESSED else 0


@dataclass
class CheckOutcome:
    """Everything one sentinel check produced."""

    verdict: Verdict
    report: RegressionReport
    harness: RuleHarness | None = None
    promoted: bool = False
    baseline_created: bool = False

    @property
    def exit_code(self) -> int:
        return self.verdict.exit_code

    @property
    def recommendations(self):
        from ..knowledge.recommendations import recommendations_of

        return recommendations_of(self.harness) if self.harness else []

    def to_dict(self) -> dict:
        """JSON-able form (what the analysis service returns to clients)."""
        return {
            "verdict": self.verdict.value,
            "exit_code": self.exit_code,
            "promoted": self.promoted,
            "baseline_created": self.baseline_created,
            "report": self.report.to_dict(),
            "recommendations": [r.to_dict() for r in self.recommendations],
        }


def check(
    db: PerfDMF,
    application: str,
    experiment: str,
    trial: str | None = None,
    *,
    policy: ThresholdPolicy | None = None,
    diagnose: bool = True,
    auto_promote: bool = False,
) -> CheckOutcome:
    """Compare ``trial`` (default: the newest stored trial) to the baseline.

    With ``auto_promote``, a verdict of *improved* moves the baseline to
    the candidate — the sentinel accepts the new expected performance.
    """
    store = LineageStore(db)
    policy = policy or ThresholdPolicy()
    with observe.span("regress.check", application=application,
                      experiment=experiment) as sp:
        trials = db.trials(application, experiment)
        if not trials:
            raise ProfileError(
                f"no trials stored under {application}/{experiment}")
        candidate_name = trial or trials[-1]
        baseline_name = store.baseline_name(application, experiment)
        if baseline_name is None:
            raise ProfileError(
                f"no baseline set for {application!r}/{experiment!r}; run "
                "`repro-perf regress baseline set` first"
            )
        baseline = db.load_trial(application, experiment, baseline_name)
        candidate = db.load_trial(application, experiment, candidate_name)
        with observe.span("regress.compare", baseline=baseline_name,
                          candidate=candidate_name):
            report = compare_trials(
                baseline, candidate, policy=policy,
                application=application, experiment=experiment,
            )
        harness = None
        if diagnose:
            with observe.span("regress.diagnose"):
                harness = diagnose_regression(report, candidate)
        verdict = Verdict(report.verdict)
        promoted = False
        if auto_promote and verdict is Verdict.IMPROVED:
            store.promote(
                application, experiment, candidate_name,
                reason=(
                    f"auto-promoted: {-report.total_relative_change:.1%} faster "
                    f"than {baseline_name}"
                ),
            )
            promoted = True
        sp.set(verdict=verdict.value, candidate=candidate_name,
               baseline=baseline_name, promoted=promoted)
        observe.event(
            "regress.gate", application=application, experiment=experiment,
            baseline=baseline_name, candidate=candidate_name,
            verdict=verdict.value, exit_code=verdict.exit_code,
            total_relative_change=report.total_relative_change,
            promoted=promoted, span_id=observe.current_span_id(),
        )
        observe.counter(f"regress.verdict.{verdict.value}").inc()
    return CheckOutcome(verdict, report, harness, promoted)

